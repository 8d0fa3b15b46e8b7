package codegen

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzCompile: parse -> check -> analyze -> lower -> EmitGo returns an
// error for a program it cannot handle, and never panics.
func FuzzCompile(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "dsl", "*.gt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, src string) {
		plan, err := Compile(src)
		if err != nil {
			return
		}
		if _, err := plan.lower(); err != nil {
			return
		}
		_, _ = plan.EmitGo()
	})
}
