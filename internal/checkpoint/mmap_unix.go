//go:build unix

package checkpoint

import (
	"os"
	"syscall"
)

// mapPath maps the file at path read-only. Any failure — open, stat, empty
// file, mmap itself — reports !ok and the caller falls back to a plain read.
func mapPath(path string) (data []byte, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() <= 0 || st.Size() != int64(int(st.Size())) {
		return nil, false
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false
	}
	return data, true
}

func unmap(data []byte) error {
	return syscall.Munmap(data)
}
