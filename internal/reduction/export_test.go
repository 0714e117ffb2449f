package reduction

// Test-loop builders shared with the external test package.
var (
	RandomLoop    = randomLoop
	ClusteredLoop = clusteredLoop
)
