package core

import (
	"fmt"

	"repro/internal/fti"
	"repro/internal/sparse"
)

// RegisterStatics checkpoints the static variables of an iterative
// method once, before the iteration loop (paper §3: the system matrix
// A, the preconditioner M — represented here by its defining matrix or
// omitted when it is rebuilt from A — and the right-hand side b).
func RegisterStatics(ck *fti.Checkpointer, a *sparse.CSR, b []float64) error {
	if a != nil {
		if err := ck.WriteStatic("A", a.Serialize()); err != nil {
			return fmt.Errorf("core: static A: %w", err)
		}
	}
	if b != nil {
		raw, err := (fti.Raw{}).Encode(nil, b)
		if err != nil {
			return err
		}
		if err := ck.WriteStatic("b", raw); err != nil {
			return fmt.Errorf("core: static b: %w", err)
		}
	}
	return nil
}

// RecoverStatics reads back the static variables written by
// RegisterStatics; either return value may be nil if it was not
// registered.
func RecoverStatics(ck *fti.Checkpointer) (*sparse.CSR, []float64, error) {
	var a *sparse.CSR
	var b []float64
	if blob, err := ck.ReadStatic("A"); err == nil {
		m, err := sparse.Deserialize(blob)
		if err != nil {
			return nil, nil, fmt.Errorf("core: static A corrupt: %w", err)
		}
		a = m
	}
	if blob, err := ck.ReadStatic("b"); err == nil {
		b = make([]float64, len(blob)/8)
		if err := (fti.Raw{}).DecodeInto(b, blob); err != nil {
			return nil, nil, fmt.Errorf("core: static b corrupt: %w", err)
		}
	}
	return a, b, nil
}
