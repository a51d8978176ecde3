package store

import (
	"reflect"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/sizes"
)

// TestKeyGolden pins the canonical key derivation across processes and
// releases: the same identity must hash to the same key forever (a warm
// store written by one binary is read by the next). If one of these
// hashes changes, every deployed store silently goes cold — that is only
// acceptable alongside an EncodingVersion bump, and this test is the
// tripwire that makes the change deliberate.
func TestKeyGolden(t *testing.T) {
	golden := []struct {
		name string
		key  Key
		want string
	}{
		{"stats base/test", StatsKey("BFS", sizes.Test, gpusim.Base()),
			"9a05de935f39422c45acde48ff829aa39562654dde80eedb52a9b2006e7e7905"},
		{"stats gtx280/medium", StatsKey("SRAD", sizes.Medium, gpusim.GTX280()),
			"5381ccd7bdbe32d405a186603bef9337832d0e7cfa53c73c0a1b83a40506a37d"},
		{"trace BFS/test", TraceKey("BFS", sizes.Test),
			"b8eb16c94dc38326d6d886e8b2059e1f5498805d4dfa1eff9f17909e6aae2247"},
		{"profiles medium", ProfilesKey([]string{"splash2/barnes", "parsec/blackscholes"}, sizes.Medium),
			"702918cb97068cd438700bdf2da2c1d0c5eff0a2c778b5561fe7debda0e1dd62"},
	}
	for _, g := range golden {
		if got := g.key.String(); got != g.want {
			t.Errorf("%s: key = %s, want %s (key derivation changed — bump EncodingVersion and repin)", g.name, got, g.want)
		}
	}
}

// TestStatsKeyConfigSensitivity walks every gpusim.Config field by
// reflection and asserts the key reacts correctly to a change in each:
// architectural parameters must produce a different key (a stale artifact
// must become a miss, never a cross-config collision), while Name and
// the ignored ShardWorkers and EpochCycles must not (none of them
// changes Stats).
func TestStatsKeyConfigSensitivity(t *testing.T) {
	hostKnobs := map[string]bool{"Name": true, "ShardWorkers": true, "EpochCycles": true}
	base := gpusim.Base()
	baseKey := StatsKey("BFS", sizes.Test, base)

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mutated := base
		f := reflect.ValueOf(&mutated).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "-mutated")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float() + 1)
		default:
			t.Fatalf("Config field %s has kind %s: teach this test (and writeConfig) the new shape", name, f.Kind())
		}
		got := StatsKey("BFS", sizes.Test, mutated)
		if hostKnobs[name] {
			if got != baseKey {
				t.Errorf("host knob %s changed the key: results would needlessly cold-start", name)
			}
		} else if got == baseKey {
			t.Errorf("field %s did not change the key: stale artifacts would collide across configs", name)
		}
	}
}

func TestKeyIdentityAxes(t *testing.T) {
	base := StatsKey("BFS", sizes.Test, gpusim.Base())
	if StatsKey("SRAD", sizes.Test, gpusim.Base()) == base {
		t.Error("benchmark does not participate in the stats key")
	}
	if StatsKey("BFS", sizes.Medium, gpusim.Base()) == base {
		t.Error("size class does not participate in the stats key")
	}
	if k := TraceKey("BFS", sizes.Test); k == base {
		t.Error("artifact kind does not participate in the key")
	}
	if TraceKey("BFS", sizes.Test) == TraceKey("BFS", sizes.Large) {
		t.Error("size class does not participate in the trace key")
	}
	if TraceKey("BFS", sizes.Test) == TraceKey("NW", sizes.Test) {
		t.Error("benchmark does not participate in the trace key")
	}
	if ProfilesKey([]string{"a", "b"}, sizes.Test) == ProfilesKey([]string{"b", "a"}, sizes.Test) {
		t.Error("workload order does not participate in the profiles key")
	}
}

// TestKeyVersionSensitivity pins that the encoding version is part of
// every key: bumping EncodingVersion must orphan all existing blobs.
func TestKeyVersionSensitivity(t *testing.T) {
	cfg := gpusim.Base()
	v1 := keyFor("gpu-stats", "BFS", sizes.Test, EncodingVersion, &cfg)
	v2 := keyFor("gpu-stats", "BFS", sizes.Test, EncodingVersion+1, &cfg)
	if v1 == v2 {
		t.Fatal("encoding version does not participate in the key")
	}
}

// TestStatsKeyStableAcrossCalls guards against any accidental
// nondeterminism (map iteration, pointer formatting) in key derivation.
func TestStatsKeyStableAcrossCalls(t *testing.T) {
	a := StatsKey("HS", sizes.Large, gpusim.GTX480(gpusim.L1Bias))
	for i := 0; i < 100; i++ {
		if b := StatsKey("HS", sizes.Large, gpusim.GTX480(gpusim.L1Bias)); b != a {
			t.Fatalf("key derivation is nondeterministic: %s vs %s", a, b)
		}
	}
}
