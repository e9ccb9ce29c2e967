package dataset

// ShardOf maps a user id to its owning shard: a strong bit-mix of the id
// reduced mod shards, so assignment is stable across runs and machines
// and needs no lookup table. The mixer is Stafford's Mix13 — the same
// finalizer randutil's SplitMix64 uses — rather than id%shards, which
// would alias against any stride structure in how ids were assigned.
// The sharded sampler, the sharded snapshots and the serving router all
// place users with it, so its values are pinned (TestShardOfStable).
func ShardOf(u UserID, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := uint64(uint32(u))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}
