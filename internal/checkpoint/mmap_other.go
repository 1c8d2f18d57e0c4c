//go:build !unix

package checkpoint

// mapPath never succeeds on non-unix hosts; Open falls back to a plain read.
func mapPath(string) ([]byte, bool) { return nil, false }

func unmap([]byte) error { return nil }
