package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"abnn2"
)

// Model is one registry entry: a hot quantized model, its pre-marshalled
// public architecture (sent on every admission), and — when a bank is
// attached — its pool identity.
type Model struct {
	Name     string
	Quant    *abnn2.QuantizedModel
	ArchJSON json.RawMessage
	// BankID is the model's correlation-pool identity
	// (abnn2.BankModelID), set by New; empty when no bank is configured.
	BankID string
}

// Registry holds the models a runtime serves, by name. The first model
// added is the default, handed to clients whose hello names no model.
// All methods are safe for concurrent use; models can be added while the
// runtime is serving (they become admissible immediately).
type Registry struct {
	mu      sync.RWMutex
	models  map[string]*Model
	defName string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*Model)}
}

// Add registers a model under name. The first Add sets the registry
// default. Duplicate names are an error: silently replacing a model
// mid-serve would break sessions mid-handshake.
func (r *Registry) Add(name string, qm *abnn2.QuantizedModel) (*Model, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty model name")
	}
	if qm == nil {
		return nil, fmt.Errorf("serve: nil model %q", name)
	}
	archJSON, err := json.Marshal(qm.Arch())
	if err != nil {
		return nil, fmt.Errorf("serve: marshal arch of %q: %w", name, err)
	}
	m := &Model{Name: name, Quant: qm, ArchJSON: archJSON}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.models[name]; dup {
		return nil, fmt.Errorf("serve: model %q already registered", name)
	}
	if len(r.models) == 0 {
		r.defName = name
	}
	r.models[name] = m
	return m, nil
}

// Get resolves a hello's model request; the empty name selects the
// default model.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defName
	}
	m, ok := r.models[name]
	return m, ok
}

// Default returns the registry's default model (nil when empty).
func (r *Registry) Default() *Model {
	m, _ := r.Get("")
	return m
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
