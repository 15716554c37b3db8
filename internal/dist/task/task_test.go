package task

import (
	"errors"
	"testing"
)

var errBoom = errors.New("boom")

// The registry is process-wide and Register panics on a duplicate, so the
// test kinds register once here, not in test bodies: the tests then pass any
// number of times in one process (-count, -cpu 1,2).
func init() {
	Register("tasktest.rev", func(p []byte) ([]byte, error) {
		out := make([]byte, len(p))
		for i, b := range p {
			out[len(p)-1-i] = b
		}
		return out, nil
	})
	Register("tasktest.fail", func(p []byte) ([]byte, error) { return nil, errBoom })
}

func TestRegisterAndRun(t *testing.T) {
	got, err := Run("tasktest.rev", []byte("abc"))
	if err != nil || string(got) != "cba" {
		t.Fatalf("Run = %q, %v", got, err)
	}
}

func TestRunUnknownKind(t *testing.T) {
	if _, err := Run("tasktest.nope", nil); err == nil {
		t.Fatal("unknown kind ran")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("tasktest.rev", func(p []byte) ([]byte, error) { return p, nil })
}

func TestTaskErrorPropagates(t *testing.T) {
	if _, err := Run("tasktest.fail", nil); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want %v", err, errBoom)
	}
}
