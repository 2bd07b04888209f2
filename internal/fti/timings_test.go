package fti

import (
	"testing"
	"time"

	"repro/internal/sparse"
)

// slowEncoder delays Encode so the encode stage has measurable
// duration; slowWriteStorage delays Write likewise.
type slowEncoder struct {
	Encoder
	delay time.Duration
}

func (s slowEncoder) Encode(dst []byte, x []float64) ([]byte, error) {
	time.Sleep(s.delay)
	return s.Encoder.Encode(dst, x)
}

// TestSyncSaveStageTimings: a synchronous Save fills EncodeSeconds and
// WriteSeconds on its Info; CaptureSeconds stays zero (the caller owns
// the capture in sync mode).
func TestSyncSaveStageTimings(t *testing.T) {
	st := NewMemStorage()
	c := New(&hookStorage{Storage: st, onWrite: func(string) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}}, slowEncoder{Encoder: Raw{}, delay: 2 * time.Millisecond})
	x := sparse.SmoothField(1024, 3)
	info, err := c.Save(testSnapshot(1, x))
	if err != nil {
		t.Fatal(err)
	}
	if info.EncodeSeconds < 0.002 {
		t.Errorf("EncodeSeconds %.6f, want ≥ 2 ms (slow encoder)", info.EncodeSeconds)
	}
	if info.WriteSeconds < 0.002 {
		t.Errorf("WriteSeconds %.6f, want ≥ 2 ms (slow storage)", info.WriteSeconds)
	}
	if info.CaptureSeconds != 0 {
		t.Errorf("sync save reported CaptureSeconds %.6f, want 0", info.CaptureSeconds)
	}
	if info.RawBytes == 0 || info.Bytes == 0 {
		t.Errorf("bytes in/out missing: raw=%d encoded=%d", info.RawBytes, info.Bytes)
	}
}

// TestAsyncPeekStageTimings: the committed Info Peek reports carries
// capture, encode, and write durations — the pipeline's stall
// accounting is observable per save.
func TestAsyncPeekStageTimings(t *testing.T) {
	a := NewAsync(New(NewMemStorage(), slowEncoder{Encoder: Raw{}, delay: 2 * time.Millisecond}))
	x := sparse.SmoothField(1<<16, 7)
	opened, err := a.SaveAsync(testSnapshot(1, x))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	info, _, _ := a.Peek()
	if info.CaptureSeconds <= 0 || info.CaptureSeconds != opened.CaptureSeconds {
		t.Errorf("CaptureSeconds %.9f, want the opened record's %.9f > 0 (the deep copy)",
			info.CaptureSeconds, opened.CaptureSeconds)
	}
	if info.EncodeSeconds < 0.002 {
		t.Errorf("EncodeSeconds %.6f, want ≥ 2 ms", info.EncodeSeconds)
	}
	if info.WriteSeconds <= 0 {
		t.Errorf("WriteSeconds %.9f, want > 0", info.WriteSeconds)
	}

	// The one save's stages stay inside the pipeline's background total.
	if st := a.Stats(); info.EncodeSeconds+info.WriteSeconds > st.EncodeWriteSeconds+1e-9 {
		t.Errorf("encode %.6f + write %.6f exceed the background total %.6f",
			info.EncodeSeconds, info.WriteSeconds, st.EncodeWriteSeconds)
	}
}
