// nondeterm: no environment reads on cell or kernel paths.
//
// Every RunCell result is persisted under a content address and later
// byte-compared across workers by Store.IngestCell; a wall-clock read,
// an environment variable, a CPU count or a global-RNG draw anywhere
// on that path turns "cell conflict means fingerprint collision" into
// "cell conflict means Tuesday". The check walks the statically
// resolvable call graph from every RunCell implementation (and every
// function in the fp8/kernels packages, which are under the same
// contract) and reports calls to the banned set.

package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
)

// nondetermBanned maps "pkgpath.Name" of banned calls to why they are
// banned.
var nondetermBanned = map[string]string{
	"time.Now":           "wall clock",
	"time.Since":         "wall clock",
	"time.Until":         "wall clock",
	"os.Getenv":          "environment read",
	"os.LookupEnv":       "environment read",
	"os.Environ":         "environment read",
	"os.Hostname":        "host identity",
	"os.Getpid":          "process identity",
	"runtime.NumCPU":     "machine-dependent CPU count",
	"runtime.GOMAXPROCS": "machine-dependent CPU count",
}

// nondetermBannedRandFuncs are the unseeded global-RNG entry points of
// math/rand; explicitly seeded sources (rand.New(rand.NewSource(n)))
// stay legal.
func isBannedRand(f *types.Func) bool {
	if f.Pkg() == nil || f.Pkg().Path() != "math/rand" {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false // *rand.Rand methods: deterministic when seeded
	}
	switch f.Name() {
	case "New", "NewSource", "NewZipf":
		return false
	}
	return true
}

func nondetermAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "nondeterm",
		Doc:  "no clock/env/CPU-count/global-RNG reads reachable from RunCell or kernel/codec code",
		Run:  runNondeterm,
	}
}

func runNondeterm(pkgs []*Package) []Finding {
	g := buildGraph(pkgs)
	roots := cellRoots(g, pkgs)
	for key, fn := range g {
		if kernelOrCodecPackage(fn.pkg) {
			roots[key] = fn
		}
	}
	chains := reachableFrom(g, roots)

	var out []Finding
	eachAudited(g, chains, func(fn *graphFunc, chain []string, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		f := calleeFunc(fn.pkg.Info, call)
		if f == nil || f.Pkg() == nil {
			return
		}
		qname := f.Pkg().Path() + "." + f.Name()
		why, banned := nondetermBanned[qname]
		if !banned && isBannedRand(f) {
			banned, why = true, "unseeded global RNG"
		}
		if !banned {
			return
		}
		msg := fmt.Sprintf("%s (%s) called on a determinism-contract path", qname, why)
		if len(chain) > 1 || chain[0] != fn.key {
			msg += fmt.Sprintf("; reachable via %s", chainString(chain))
		}
		out = append(out, Finding{Check: "nondeterm", Pos: position(fn.pkg, call), Message: msg})
	})
	return out
}
