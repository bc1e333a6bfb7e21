package cli

import (
	"flag"
	"testing"
)

func TestPositive(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, ""},
		{[]string{"-n", "0"}, "-n must be positive, got 0"},
		{[]string{"-w", "-5"}, "-w must be positive, got -5"},
		{[]string{"-w", "NaN"}, "-w must be positive, got NaN"},
		{[]string{"-n", "3", "-w", "0.5"}, ""},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.Int("n", 32, "")
		fs.Float64("w", 100, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := Positive(fs, "n", "w"); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("Positive(%q) = %q, want %q", tc.args, got, tc.want)
		}
	}
}
