// Package uncheckederr is spatial-lint golden-corpus input for the
// unchecked-err check: bare Close/Write/json.Encoder.Encode calls drop
// errors that corrupt the monitoring plane silently.
package uncheckederr

import (
	"encoding/json"
	"os"
)

// DumpJSON drops the Encode error, leaving half-written JSON; flagged.
func DumpJSON(f *os.File, v any) {
	json.NewEncoder(f).Encode(v) // want "json.Encoder.Encode returns an error that is discarded"
}

// Persist drops both the Write and the deferred Close error; flagged
// twice.
func Persist(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want "File.Close returns an error that is discarded"
	f.Write(data)   // want "File.Write returns an error that is discarded"
	return nil
}

// PersistChecked handles every error; not flagged.
func PersistChecked(path string, data []byte) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(data)
	return err
}

// BestEffort acknowledges the discard explicitly with `_ =`; not
// flagged.
func BestEffort(f *os.File, v any) {
	_ = json.NewEncoder(f).Encode(v)
}

// CleanupTemp waives the deferred Close with a reason.
func CleanupTemp(f *os.File, data []byte) error {
	defer f.Close() //lint:ignore unchecked-err corpus demo: caller re-stats the file and detects a lost flush
	_, err := f.Write(data)
	return err
}
