package inject

// Internals exported to the external inject_test package, whose tests
// import core (which imports inject) and so cannot live in package inject.
var ParseExperimentPayload = parseExperimentPayload

const (
	WALHeaderSize  = walHeaderSize
	WALFlagElided  = walFlagElided
	WALFlagBatched = walFlagBatched
)
