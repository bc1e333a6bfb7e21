// Package cli standardizes the flag surface shared by the iocost-* commands:
// one version string, a uniform usage banner, a -version flag, and a fatal
// helper that prefixes errors with the tool name. Keeping these in one place
// is what makes `iocost-sim -seed 7` and `iocost-trace capture -seed 7` feel
// like one toolchain instead of six scripts.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
)

// Version is the toolchain version reported by every command's -version.
const Version = "0.9.0"

var versionFlag *bool

// Setup installs a standard usage function for tool on the default flag set
// and registers the -version flag. Call before flag.Parse (or use Parse).
func Setup(tool, synopsis string) {
	versionFlag = flag.Bool("version", false, "print version and exit")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: %s %s\n", tool, synopsis)
		flag.PrintDefaults()
	}
}

// Parse parses the default flag set and handles -version.
func Parse(tool string) {
	flag.Parse()
	if versionFlag != nil && *versionFlag {
		PrintVersion(tool)
		os.Exit(0)
	}
}

// PrintVersion reports tool's version on stdout.
func PrintVersion(tool string) {
	fmt.Printf("%s %s\n", tool, Version)
}

// Fatalf prints "tool: message" to stderr and exits 1.
func Fatalf(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(1)
}

// Positive reports the first of the named numeric flags of fs whose value
// is not above zero (NaN included), as "-name must be positive, got v".
func Positive(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		v := fs.Lookup(name).Value.String()
		if f, err := strconv.ParseFloat(v, 64); err != nil || !(f > 0) {
			return fmt.Errorf("-%s must be positive, got %s", name, v)
		}
	}
	return nil
}
