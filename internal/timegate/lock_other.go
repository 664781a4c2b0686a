//go:build !unix

package timegate

// lock is a no-op where flock is unavailable: Pairs runs unlocked.
func lock() (unlock func()) { return func() {} }
