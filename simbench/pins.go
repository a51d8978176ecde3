package main

// pins are the outputs the checks compare against: hashes of each
// result's JSON encoding (see jsonHash), and the work counts a pass does.
// They come from this simulator's own committed results — TestMediumPins
// derives the hashes from live, CPU-validated execution — not from
// hardware, so the benchmark reports no accuracy figure. A result that
// differs from its hash is a failure; a count that differs is reported as
// a model change.
type pins struct {
	capture map[string]string            // benchmark → Stats of replay's set-up, on the base configuration
	replay  map[string]string            // benchmark/configuration → Stats
	profile map[string]string            // suite/workload → CPU profile
	counts  map[string]map[string]uint64 // workload → pass counts
}

// committedPins hold at the medium class (serve's counts at the test
// class it always runs at).
var committedPins = pins{
	capture: map[string]string{
		"BFS":  "fbd99cb7c0995796",
		"BP":   "88b790396ad7f42c",
		"CFD":  "b1b17ae4e170eb97",
		"HS":   "97247d8c3de862e7",
		"HW":   "ef7953f8cbe4113d",
		"KM":   "ccf481a806721fdc",
		"LC":   "9b8316e59d2b19c8",
		"LUD":  "ae64f664cdcc2e16",
		"MUM":  "0dc38931a3dccea2",
		"NW":   "0f250ea54bae1bd4",
		"SC":   "45dcda7645d8ee61",
		"SRAD": "d04e467a3f62fa11",
	},
	replay: map[string]string{
		"BFS/4ch":            "9970fb685ec7757f",
		"BFS/6ch":            "063b060f92a507dc",
		"BFS/gtx280":         "7e5549567d479efe",
		"BFS/gtx480-l1":      "322ab356849294c0",
		"BFS/gtx480-shared":  "94bab7649c29dbf7",
		"BP/4ch":             "452166418767b311",
		"BP/6ch":             "2b98d879a7756882",
		"BP/gtx280":          "d806aea32ef00960",
		"BP/gtx480-l1":       "a21b00d0bba8ce57",
		"BP/gtx480-shared":   "5f5e72385f65171a",
		"CFD/4ch":            "887bc23f5ef6b954",
		"CFD/6ch":            "729510f9f252ca31",
		"CFD/gtx280":         "0b0df974da89fbc4",
		"CFD/gtx480-l1":      "03da11e819b2f732",
		"CFD/gtx480-shared":  "01433010946ebf25",
		"HS/4ch":             "a258c3ead683f9ee",
		"HS/6ch":             "0827e335a32f682a",
		"HS/gtx280":          "147a54a10c1ddc54",
		"HS/gtx480-l1":       "3b8800fb3d66f060",
		"HS/gtx480-shared":   "718971310bc53ccc",
		"HW/4ch":             "f5b4aeb79652166f",
		"HW/6ch":             "a2dbf7cb9e1657e5",
		"HW/gtx280":          "26f15c0bb7eee789",
		"HW/gtx480-l1":       "6d60c3b34a13fcdf",
		"HW/gtx480-shared":   "c7ce1f1c95065ce4",
		"KM/4ch":             "d851e12f57e11b16",
		"KM/6ch":             "d6e523ae88efcace",
		"KM/gtx280":          "d2add6404980e902",
		"KM/gtx480-l1":       "34c2818b294cb955",
		"KM/gtx480-shared":   "167c01e14bfc5f62",
		"LC/4ch":             "f80ea79a747da56a",
		"LC/6ch":             "50fbba1fd2404836",
		"LC/gtx280":          "acb9643a98e6a025",
		"LC/gtx480-l1":       "674687ffb7d8086b",
		"LC/gtx480-shared":   "1ee9fd1e59325749",
		"LUD/4ch":            "62e16a11fbd15443",
		"LUD/6ch":            "5d32fb65630d3c2c",
		"LUD/gtx280":         "dc452f4d0d64ab49",
		"LUD/gtx480-l1":      "bc8ce5c8dcbcd914",
		"LUD/gtx480-shared":  "e92cec1cb3c9e32f",
		"MUM/4ch":            "a231f292eea84a70",
		"MUM/6ch":            "97e328818e076df5",
		"MUM/gtx280":         "06601d27f19263f7",
		"MUM/gtx480-l1":      "10279e73c1ed7481",
		"MUM/gtx480-shared":  "2afab5a6b35809c4",
		"NW/4ch":             "b294b76cc6eb3373",
		"NW/6ch":             "984cb4f346ba7db3",
		"NW/gtx280":          "f6362dc4eb169cc4",
		"NW/gtx480-l1":       "7cd0019bdd7fa038",
		"NW/gtx480-shared":   "b2bee988ea737f1e",
		"SC/4ch":             "4f43923c899fde64",
		"SC/6ch":             "8d8e21161f382b9a",
		"SC/gtx280":          "28313b5613fc6bc3",
		"SC/gtx480-l1":       "2ae67327960790e2",
		"SC/gtx480-shared":   "6e21e45418ee8e05",
		"SRAD/4ch":           "0f537a3a60692762",
		"SRAD/6ch":           "b2aeebf101a3385f",
		"SRAD/gtx280":        "a9208242761f1c52",
		"SRAD/gtx480-l1":     "b36514555e920586",
		"SRAD/gtx480-shared": "76aaa6caca66f669",
	},
	profile: map[string]string{
		"P/blackscholes":    "66458e0190f9a304",
		"P/bodytrack":       "950b6b06a54da35b",
		"P/canneal":         "abc60073497603ef",
		"P/dedup":           "0d7c7bd5aa5319a0",
		"P/facesim":         "f97af95e07b6151b",
		"P/ferret":          "7673cd5f10ea4ffd",
		"P/fluidanimate":    "15e53c36291b25ff",
		"P/freqmine":        "c919e86d60531217",
		"P/raytrace":        "37c4b820caff702e",
		"P/swaptions":       "b4dc906381ad9263",
		"P/vips":            "84816225786d61e1",
		"P/x264":            "cbc6c9c3468cd07a",
		"R,P/streamcluster": "6f2e8d261d9cd898",
		"R/backprop":        "e67e6c232e68accc",
		"R/bfs":             "bb500075643b8b8f",
		"R/cfd":             "3cb5715cff5bd126",
		"R/heartwall":       "bd384b97f64ff387",
		"R/hotspot":         "210470081ca1ca7e",
		"R/kmeans":          "fab9c6713f482d2d",
		"R/leukocyte":       "8d9b629d32301629",
		"R/lud":             "17adad74ca6014c9",
		"R/mummergpu":       "2259c2e8b7fe3be7",
		"R/nw":              "e35e3c021d1a05dd",
		"R/srad":            "da54aaa29b069841",
	},
	counts: map[string]map[string]uint64{
		"replay": {
			// The set-up's capture of the 12 benchmarks on the base
			// configuration.
			"capture.cycles":      8870496,
			"capture.warp_instrs": 27736033,
			// A pass.
			"gpusim.clock.skipped_cycles": 11497017,
			"gpusim.cycles":               55785638,
			"gpusim.dram.accesses":        27778708,
			"gpusim.l1.accesses":          8070902,
			"gpusim.l2.accesses":          13768378,
			"gpusim.stall.sched_cycles":   16489197,
			"isa.trace_bytes":             160964185,
			"isa.warp_instrs":             138680165,
		},
		"profile": {
			"cpu.instrs":         253936405,
			"cpu.mem_refs":       35552423,
			"cpu.sweep.accesses": 37035795,
			"cpu.sweep.probes":   30862118,
			"cpu.trace.batches":  926518,
			"cpu.trace.events":   59377959,
		},
		// serve runs at the test class; which keys are warm, and so its
		// cycles and store bytes, depend on the seed, but its tier mix
		// does not.
		"serve": {
			"serve.requests.memory":  2843,
			"serve.requests.disk":    61,
			"serve.requests.compute": 96,
			"exp.gpu.runs":           96,
			"exp.trace.replays":      96,
			"store.hit":              73,
			"store.miss":             96,
			"store.put":              96,
		},
	},
}
