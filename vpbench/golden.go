package main

// Golden outputs for the default windows (20k+80k µops). A change that only
// speeds up the simulator must leave every one of them unchanged; a change
// that alters the model updates them here together with the README's
// workload cards.
const (
	defaultSeed      = 1
	defaultFleetPort = 47100

	// goldenFig4Digest covers the 171 deduplicated fig4 records, which
	// every seed runs.
	goldenFig4Digest = "ba1574da9e7e45868bb6de9c0344cd2b851a7b769a7784874bfac4768941dd08"

	// goldenSweepDigest covers the whole 189-record sweep set of the
	// default seed: fig4 plus its generated corpus.
	goldenSweepDigest = "3f7cfd4095e84d20b3a49a4f045380bce51a8a9023104cf6e8f4184bae12f0b8"
)

// goldenShardSims is the per-shard simulation count of fleet-cold on the
// default seed with shards on the default ports: the ring hashes shard URLs,
// so fixed ports fix the split.
var goldenShardSims = []uint64{134, 83}
