// Package task is the remote-computation registry of the distributed
// runtime: a kind string maps to a pure function from payload bytes to
// result bytes. Packages that own a remotable computation (kronecker's
// ball-drop stage, the artifact row encoders) register their kinds from
// init, so any process that links them — coordinator or worker — can
// execute them. The registry is a leaf package with no dependencies, which
// is what lets internal/cluster, internal/serve and internal/dist all reach
// it without import cycles.
//
// Determinism contract: a registered function must be a pure function of
// its payload — same bytes in, same bytes out, on any host. The engine's
// byte-identity guarantee (in-process == 1 worker == N workers) reduces to
// exactly this property plus deterministic payload construction.
package task

import (
	"fmt"
	"sync"
)

// Func executes one remote task kind: payload bytes in, result bytes out.
type Func func(payload []byte) ([]byte, error)

var (
	mu    sync.RWMutex
	kinds = make(map[string]Func)
)

// Register installs fn as the executor for kind. It panics on duplicate
// registration — two packages claiming one kind is a programming error that
// must fail at init, not silently shadow at dispatch time.
func Register(kind string, fn Func) {
	if kind == "" || fn == nil {
		panic("task: Register requires a kind and a function")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := kinds[kind]; dup {
		panic("task: duplicate registration of kind " + kind)
	}
	kinds[kind] = fn
}

// Run executes one task of the named kind.
func Run(kind string, payload []byte) ([]byte, error) {
	mu.RLock()
	fn := kinds[kind]
	mu.RUnlock()
	if fn == nil {
		return nil, fmt.Errorf("task: unknown kind %q", kind)
	}
	return fn(payload)
}
