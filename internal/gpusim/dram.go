package gpusim

// fifoDRAM models the device memory system the caches sit in front of:
// independent channels selected by line-interleaved addressing, each a
// FIFO with fixed service time per transaction plus a pipe latency. It
// prices line transactions and reports the traffic it carried.
type fifoDRAM struct {
	freeAt  []uint64
	service float64 // core cycles to transfer one line on one channel
	latency uint64
	line    uint64
	bytes   uint64
	txns    uint64

	// lo, when non-nil, receives queue-occupancy telemetry: the backlog
	// of a channel at enqueue time (freeAt − now, in cycles) is the FIFO
	// model's measure of how deep the memory pipeline is running. Only
	// the event loop calls access, so plain fields suffice.
	lo *launchObs
}

func newDRAM(cfg *Config) *fifoDRAM {
	return &fifoDRAM{
		freeAt:  make([]uint64, cfg.MemChannels),
		service: float64(cfg.LineSize) / cfg.dramBytesPerCoreCycle(),
		latency: uint64(cfg.DRAMLatency),
		line:    uint64(cfg.LineSize),
	}
}

// access enqueues one line transaction for addr at cycle now and returns
// its completion cycle.
func (d *fifoDRAM) access(now, addr uint64) uint64 {
	ch := (addr / d.line) % uint64(len(d.freeAt))
	start := d.freeAt[ch]
	if now > start {
		start = now
	}
	if lo := d.lo; lo != nil {
		lo.dramAccesses++
		if backlog := start - now; backlog > 0 {
			lo.dramBacklog += backlog
			if backlog > lo.dramMaxBacklog {
				lo.dramMaxBacklog = backlog
			}
		}
	}
	d.freeAt[ch] = start + uint64(d.service+0.5)
	d.bytes += d.line
	d.txns++
	return d.freeAt[ch] + d.latency
}

// drainedBy returns the cycle by which every channel is idle, at least
// now. A launch is not over until buffered stores drain.
func (d *fifoDRAM) drainedBy(now uint64) uint64 {
	for _, f := range d.freeAt {
		if f > now {
			now = f
		}
	}
	return now
}

// traffic reports the total bytes and transactions carried.
func (d *fifoDRAM) traffic() (bytes, txns uint64) { return d.bytes, d.txns }
