package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileReplaces: the new contents land at the path and no
// temporary file is left behind, and a write into a missing directory
// fails without creating anything.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "LIVE")
	for _, want := range []string{"1\n", "1\n2\n"} {
		if err := WriteFile(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only LIVE", len(entries))
	}
	if err := WriteFile(filepath.Join(dir, "gone", "LIVE"), []byte("1\n")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
