package difftest

import (
	"fmt"
	"testing"
)

// sweepShardCount is how many parallel subtests each differential sweep is
// split into. Seeds are strided across shards, so the set of seeds checked
// is identical to the sequential loop; every Lane.Check call builds its own
// machines, so shards share nothing but the (immutable, once-built) guest
// modules. Determinism is per seed, not per schedule — a failure always
// reproduces with the same seed standalone.
const sweepShardCount = 8

// sweepShards runs check(i) for every i in [0, n), sharded across parallel
// subtests.
func sweepShards(t *testing.T, n int, check func(i int) error) {
	t.Helper()
	for s := 0; s < sweepShardCount; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for i := s; i < n; i += sweepShardCount {
				if err := check(i); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
