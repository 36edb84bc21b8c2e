// Package atomicfile writes files so that a crash at any point leaves
// either the old contents or the new ones at the path, never a torn mix.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile replaces path with data durably: it writes a same-directory
// temporary file, fsyncs it, renames it over path and fsyncs the directory
// so the rename itself survives a power loss.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
