package main

// Example runs the walkthrough, so go test checks every line it prints:
// the ops of each commit, the no-op re-ingest, each checkout (through a
// CheckpointEvery: 2 snapshot or the head) against its fingerprint, the
// composed diff, the feed's events and every version after the log is
// reopened.
func Example() {
	main()
	// Output:
	// committed v2: 7 nodes, 3 ops ({Inserts:2 Deletes:0 Updates:1 Moves:0})
	// committed v3: 7 nodes, 1 ops ({Inserts:0 Deletes:0 Updates:0 Moves:1})
	// committed v4: 7 nodes, 2 ops ({Inserts:1 Deletes:1 Updates:0 Moves:0})
	// re-ingest of v4 content: noop=true, version=4
	//
	// checkout v4: 7 nodes, fp 9e94cca5..., matches original: true
	// checkout v3: 7 nodes, fp 3023f977..., matches original: true
	// checkout v2: 7 nodes, fp 0d5d725d..., matches original: true
	// checkout v1: 5 nodes, fp a35f4a32..., matches original: true
	//
	// composed diff v2 -> v3: 1 ops
	//
	// feed events:
	//   snapshot v1 hits=0
	//   change   v2 hits=2
	//   change   v4 hits=2
	//
	// after reopen from log:
	//   v1 intact: true
	//   v2 intact: true
	//   v3 intact: true
	//   v4 intact: true
}
