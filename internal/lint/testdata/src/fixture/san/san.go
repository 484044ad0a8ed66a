// Package san is a miniature stand-in for the real SAN package, just large
// enough for the lint rules to resolve Compile and Options against it.
package san

import "errors"

// Model is a mutable model builder.
type Model struct{ places int }

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddPlace adds a place.
func (m *Model) AddPlace(name string, initial int) { m.places++ }

// SetName renames the model.
func (m *Model) SetName(name string) {}

// CompiledModel is an immutable compiled snapshot.
type CompiledModel struct{}

// Compile snapshots the model.
func Compile(m *Model) (*CompiledModel, error) {
	if m == nil {
		return nil, errors.New("nil model")
	}
	return &CompiledModel{}, nil
}

// Options configures a study.
type Options struct {
	Mission      float64
	Replications int
}

// Validate rejects out-of-range options.
func (o Options) Validate() error {
	if o.Replications < 0 {
		return errors.New("negative replications")
	}
	return nil
}

// WithDefaults fills zero fields.
func (o Options) WithDefaults() Options {
	if o.Replications == 0 {
		o.Replications = 1
	}
	return o
}
