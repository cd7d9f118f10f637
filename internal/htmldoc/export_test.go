package htmldoc

// ParseWithSplitter is ParseLimited with the sentence splitter passed in,
// so external tests can parse with a reference splitter.
var ParseWithSplitter = parse
