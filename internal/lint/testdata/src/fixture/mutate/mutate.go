// Package mutate exercises the nocompiledmutation rule.
package mutate

import "fixture/san"

// BuildAndMutate keeps mutating a model after compiling it; the compiled
// snapshot never sees the late places.
func BuildAndMutate() (*san.CompiledModel, error) {
	m := san.NewModel()
	m.AddPlace("up", 1)
	cm, err := san.Compile(m)
	if err != nil {
		return nil, err
	}
	m.AddPlace("late", 0) // want nocompiledmutation
	m.SetName("renamed")  // want nocompiledmutation
	return cm, nil
}

// FreshModelAllowed compiles one model and then builds a different one;
// mutating the fresh model is fine.
func FreshModelAllowed() error {
	m := san.NewModel()
	if _, err := san.Compile(m); err != nil {
		return err
	}
	m2 := san.NewModel()
	m2.AddPlace("ok", 1)
	_, err := san.Compile(m2)
	return err
}

// BuildThenCompileAllowed is the intended order.
func BuildThenCompileAllowed() (*san.CompiledModel, error) {
	m := san.NewModel()
	m.AddPlace("up", 1)
	m.SetName("good")
	return san.Compile(m)
}
