//go:build unix

package timegate

import (
	"os"
	"path/filepath"
	"syscall"
)

// lock takes an exclusive advisory lock on a file in os.TempDir(), shared
// by every process of the user that times a gate through Pairs, and returns
// its release. If the file cannot be opened or locked, Pairs runs unlocked.
func lock() (unlock func()) {
	f, err := os.OpenFile(filepath.Join(os.TempDir(), "repro-timegate.lock"), os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return func() {}
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return func() {}
	}
	return func() { f.Close() } // closing the file releases the lock
}
