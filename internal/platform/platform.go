// Package platform describes the machine a reduction engine serves on, as
// far as serving needs it: the processor fan-out and the per-processor L2
// capacity that sizes pattern characterization and merge blocks.
//
// It imports nothing else from this module, so serving code can name its
// machine without linking the paper's cycle simulator (package vtime),
// whose Table 1 cost model reads the same default geometry from here.
package platform

// DefaultL2Bytes is the per-processor L2 capacity of the paper's Table 1
// machine (512 KiB).
const DefaultL2Bytes = 512 << 10

// Cache is the memory geometry the engine sizes its work against.
type Cache struct {
	// L2Bytes is the per-processor second-level cache capacity.
	L2Bytes int
}

// Platform is the machine a reduction engine serves on.
type Platform struct {
	// Procs is the goroutine fan-out per job.
	Procs int
	// Cfg is the machine's cache geometry.
	Cfg Cache
}

// Default returns a procs-processor platform with the Table 1 cache.
func Default(procs int) Platform {
	return Platform{Procs: procs, Cfg: Cache{L2Bytes: DefaultL2Bytes}}
}
