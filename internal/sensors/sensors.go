// Package sensors provides deterministic synthetic peripherals for the
// simulated device: a three-axis accelerometer that alternates between
// "moving" and "stationary" regimes (the activity-recognition workload),
// and soil-moisture/temperature channels with slow diurnal-style drift
// (the greenhouse-monitoring workload). Readings are pure functions of
// (seed, channel, time), so every experiment is reproducible.
package sensors

// Channel ids used by the benchmark applications.
const (
	AccelX int32 = iota
	AccelY
	AccelZ
	Moisture
	Temperature
)

// Bank is the default deterministic sensor bank.
type Bank struct {
	Seed uint64
	// RegimeMs is the length of each moving/stationary phase (default
	// 3000 ms).
	RegimeMs float64
}

// NewBank returns a bank with the default regime length.
func NewBank(seed uint64) *Bank { return &Bank{Seed: seed, RegimeMs: 3000} }

// hash mixes the seed, channel and a time bucket into pseudo-random bits.
func (b *Bank) hash(id int32, bucket int64) uint64 {
	x := b.Seed ^ uint64(id)*0x9E3779B97F4A7C15 ^ uint64(bucket)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Moving reports whether the simulated wearer is in a moving regime at the
// given true time.
func (b *Bank) Moving(trueMs float64) bool {
	regime := b.RegimeMs
	if regime <= 0 {
		regime = 3000
	}
	return (int64(trueMs/regime) % 2) == 1
}

// Sense implements vm.SensorBank.
func (b *Bank) Sense(id int32, trueMs float64) int32 {
	bucket := int64(trueMs) // 1 ms resolution
	h := b.hash(id, bucket)
	noise := func(amp int32) int32 { return int32(h%uint64(2*amp+1)) - amp }
	switch id {
	case AccelX, AccelY, AccelZ:
		// Accelerometer counts around gravity on Z; moving adds large
		// oscillation, stationary only sensor noise.
		base := int32(0)
		if id == AccelZ {
			base = 1000
		}
		if b.Moving(trueMs) {
			swing := int32(300)
			phase := (bucket/40 + int64(id)*7) % 2
			if phase == 0 {
				return base + swing + noise(120)
			}
			return base - swing + noise(120)
		}
		return base + noise(12)
	case Moisture:
		// Slow drying curve with irrigation spikes every ~50 s.
		cycle := bucket % 50000
		level := int32(800) - int32(cycle/100)
		return level + noise(8)
	case Temperature:
		// Tenths of a degree around 22 C with a slow ramp.
		ramp := int32((bucket / 2000) % 60)
		return 220 + ramp + noise(5)
	}
	return noise(100)
}

// Scripted replays fixed sequences per channel (tests use it for exact
// oracles). Reads past the end repeat the final value; empty channels
// return zero.
type Scripted struct {
	Values map[int32][]int32
	idx    map[int32]int
}

// NewScripted builds a scripted bank.
func NewScripted(values map[int32][]int32) *Scripted {
	return &Scripted{Values: values, idx: map[int32]int{}}
}

// Sense implements vm.SensorBank.
func (s *Scripted) Sense(id int32, trueMs float64) int32 {
	seq := s.Values[id]
	if len(seq) == 0 {
		return 0
	}
	i := s.idx[id]
	if i >= len(seq) {
		return seq[len(seq)-1]
	}
	s.idx[id] = i + 1
	return seq[i]
}
