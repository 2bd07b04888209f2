package mpi

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestRunAllRanksExecute(t *testing.T) {
	var n int64
	err := Run(8, func(c *Comm) error {
		atomic.AddInt64(&n, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("ran %d ranks, want 8", n)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestAllreduceSum(t *testing.T) {
	err := Run(16, func(c *Comm) error {
		got := c.AllreduceSum(float64(c.Rank()))
		want := float64(16 * 15 / 2)
		if got != want {
			t.Errorf("rank %d: AllreduceSum = %v, want %v", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSumRepeated(t *testing.T) {
	// Successive collectives must not bleed state between generations.
	err := Run(5, func(c *Comm) error {
		for iter := 0; iter < 50; iter++ {
			got := c.AllreduceSum(float64(iter))
			if got != float64(5*iter) {
				t.Errorf("iter %d: got %v, want %v", iter, got, float64(5*iter))
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSumVec(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		x := []float64{float64(c.Rank()), 1}
		c.AllreduceSumVec(x)
		if x[0] != 6 || x[1] != 4 {
			t.Errorf("rank %d: AllreduceSumVec = %v, want [6 4]", c.Rank(), x)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherv(t *testing.T) {
	counts := []int{1, 2, 3}
	err := Run(3, func(c *Comm) error {
		local := make([]float64, counts[c.Rank()])
		for i := range local {
			local[i] = float64(c.Rank()*10 + i)
		}
		all := c.Allgatherv(local, counts)
		want := []float64{0, 10, 11, 20, 21, 22}
		if len(all) != len(want) {
			t.Errorf("rank %d: len = %d, want %d", c.Rank(), len(all), len(want))
			return nil
		}
		for i := range want {
			if all[i] != want[i] {
				t.Errorf("rank %d: Allgatherv = %v, want %v", c.Rank(), all, want)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOrdering(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
			c.Send(1, 0, []float64{2})
		} else {
			a := c.Recv(0, 0)
			b := c.Recv(0, 0)
			if a[0] != 1 || b[0] != 2 {
				t.Errorf("per-pair ordering violated: %v %v", a, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the delivered message
		} else {
			got := c.Recv(0, 0)
			if got[0] != 42 {
				t.Errorf("Recv = %v, want 42 (Send must copy)", got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedDotMatchesSequential(t *testing.T) {
	// The canonical use: each rank owns a chunk; the allreduced partial
	// dot products must equal the sequential dot product.
	n := 1000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
		y[i] = math.Cos(float64(i) / 3)
	}
	var seq float64
	for i := range x {
		seq += x[i] * y[i]
	}
	for _, p := range []int{1, 3, 8} {
		err := Run(p, func(c *Comm) error {
			lo := c.Rank() * n / p
			hi := (c.Rank() + 1) * n / p
			var part float64
			for i := lo; i < hi; i++ {
				part += x[i] * y[i]
			}
			got := c.AllreduceSum(part)
			if math.Abs(got-seq) > 1e-9*math.Abs(seq) {
				t.Errorf("p=%d rank %d: dot=%v, want %v", p, c.Rank(), got, seq)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
