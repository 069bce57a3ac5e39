package scenario

import (
	"hash/fnv"
	"io"
	"strconv"
	"time"
)

// Backoff returns the pause before retry attempt `attempt` (1-based):
// capped exponential — base·2^(attempt-1), clamped to cap — scaled by a
// deterministic jitter factor in [0.5, 1.0] derived from (seed, key,
// attempt). It paces scenariod's requeue of a cell whose lease expired
// or whose worker reported infra; local leg retries run at once. The
// jitter spreads a fleet's requeued cells instead of re-leasing them in
// lockstep, and it is a pure function of its arguments — no shared rng,
// no real randomness — so schedules replay bit-for-bit under a fake
// clock. base <= 0 disables backoff entirely; cap <= 0 defaults to
// 32·base.
func Backoff(base, cap time.Duration, attempt int, seed int64, key string) time.Duration {
	if base <= 0 || attempt <= 0 {
		return 0
	}
	if cap <= 0 {
		cap = 32 * base
	}
	d := base
	for i := 1; i < attempt; i++ {
		if d >= cap/2 {
			d = cap
			break
		}
		d *= 2
	}
	if d > cap {
		d = cap
	}
	// splitmix64-style mix of (seed, key, attempt), as the fault plans do.
	h := fnv.New64a()
	io.WriteString(h, strconv.FormatInt(seed, 10))
	io.WriteString(h, "|")
	io.WriteString(h, key)
	io.WriteString(h, "|")
	io.WriteString(h, strconv.Itoa(attempt))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x>>11) / float64(uint64(1)<<53) // uniform in [0, 1)
	return time.Duration(float64(d) * (0.5 + frac/2))
}
