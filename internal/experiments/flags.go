package experiments

import (
	"flag"

	"repro/internal/obs"
	"repro/internal/store"
)

// Flags owns the Context wiring cmd/rodiniasim, cmd/experiments and
// cmd/simd share — -nocheck, -store, -store-bytes — in the manner of
// obs.ProfileFlags:
//
//	cf := experiments.ContextFlags(flag.CommandLine)
//	flag.Parse()
//	ctx, err := cf.Context(reg)
//	if err != nil { ... }
//	defer cf.Close()
type Flags struct {
	nocheck    *bool
	storeDir   *string
	storeBytes *int64
	st         *store.Store
}

// ContextFlags registers the shared flags on the flag set and returns
// the handle that builds a Context from them.
func ContextFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		nocheck:    fs.Bool("nocheck", false, "skip functional validation of GPU kernels against the CPU reference"),
		storeDir:   fs.String("store", "", "persistent artifact store directory (cached-or-computed results across runs)"),
		storeBytes: fs.Int64("store-bytes", 0, "byte cap of the on-disk store LRU (0 = default)"),
	}
}

// Context returns a new Context configured by the parsed flags and
// reporting through reg, with the -store directory opened as its Store.
// Call after flag.Parse.
func (f *Flags) Context(reg *obs.Registry) (*Context, error) {
	ctx := NewContext()
	ctx.Check = !*f.nocheck
	ctx.Obs = reg
	if *f.storeDir != "" {
		st, err := store.Open(*f.storeDir, *f.storeBytes, reg)
		if err != nil {
			return nil, err
		}
		f.st = st
		ctx.Store = st
	}
	return ctx, nil
}

// Close closes the store Context opened, if any.
func (f *Flags) Close() error {
	if f.st == nil {
		return nil
	}
	return f.st.Close()
}
