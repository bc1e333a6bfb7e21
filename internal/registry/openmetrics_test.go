package registry

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestEncoderFormat(t *testing.T) {
	var b bytes.Buffer
	enc := NewEncoder(&b)
	enc.Family("quiet", "", Gauge)
	enc.Sample("quiet", "", 0.5)
	enc.Family("lat_ns", "latency", Summary)
	enc.Sample("lat_ns", `{quantile="0.5"}`, 1e21)
	enc.SampleAt("lat_ns_count", "", 3, 0.1)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE quiet gauge\n" +
		"quiet 0.5\n" +
		"# HELP lat_ns latency\n" +
		"# TYPE lat_ns summary\n" +
		"lat_ns{quantile=\"0.5\"} 1e+21\n" +
		"lat_ns_count 3 0.1\n" +
		"# EOF\n"
	if got := b.String(); got != want {
		t.Fatalf("encoded:\n%s\nwant:\n%s", got, want)
	}
	if n := strings.Count(b.String(), "# EOF"); n != 1 {
		t.Fatalf("# EOF written %d times", n)
	}
}

// failSecond accepts one write, then fails every later one.
type failSecond struct {
	bytes.Buffer
	writes int
}

var errSecond = errors.New("second write failed")

func (f *failSecond) Write(p []byte) (int, error) {
	f.writes++
	if f.writes >= 2 {
		return 0, errSecond
	}
	return f.Buffer.Write(p)
}

func TestEncoderStickyError(t *testing.T) {
	w := &failSecond{}
	enc := NewEncoder(w)
	enc.Family("a_total", "counts a", Counter) // HELP succeeds, TYPE fails
	enc.Sample("a_total", "", 1)
	enc.SampleAt("a_total", "", 2, 0.1)
	if err := enc.Close(); !errors.Is(err, errSecond) {
		t.Fatalf("Close = %v, want the first write error", err)
	}
	if w.writes != 2 {
		t.Fatalf("%d writes, want none after the failing one", w.writes)
	}
	if got := w.String(); got != "# HELP a_total counts a\n" {
		t.Fatalf("written %q", got)
	}
}

func TestRegistryWriteOpenMetrics(t *testing.T) {
	r := New()
	r.CounterFunc("a_total", "counts a", nil, func() float64 { return 3 })
	r.GaugeFunc("b", "", L("dev", "ssd"), func() float64 { return 0.25 })
	var b bytes.Buffer
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP a_total counts a\n# TYPE a_total counter\na_total 3\n" +
		"# TYPE b gauge\nb{dev=\"ssd\"} 0.25\n# EOF\n"
	if got := b.String(); got != want {
		t.Fatalf("scrape:\n%s\nwant:\n%s", got, want)
	}
}
