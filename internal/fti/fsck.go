package fti

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/fti/shard"
)

// Crash consistency. The commit protocol (DirStorage.write plus the
// shard layer's manifest-last group commit) can be interrupted at five
// distinct points, each leaving a different artifact:
//
//  1. temp file written, not fsynced — a "*.tmp" file whose content
//     may be partial; the final name never existed.
//  2. temp file fsynced, not renamed — a complete "*.tmp" file; the
//     final name never existed.
//  3. renamed, directory not fsynced — after the crash the file either
//     survived (commit happened) or vanished (commit never happened);
//     both are consistent states, which is the point of the protocol.
//  4. shard objects written, manifest not committed — orphan
//     "<base>.sNNNNN" objects with no base; the group never existed.
//  5. manifest temp written/partial — case 1/2 under the base name;
//     the group never became visible.
//
// Only after the manifest's rename is durable (its Write's directory
// fsync) does the group exist. Every artifact of points 1–5 is
// invisible to Restore (List hides temp files; orphan shards have no
// base), but they consume space and — for stale temp files and shards
// reusing a sequence number after a crash-restart — can shadow later
// writes. Fsck is the startup sweep that removes them, and
// additionally verifies that every visible checkpoint is *fully*
// committed (manifest parseable, all shards present with matching
// size and CRC32C; monolithic payloads passing their IEEE CRC),
// garbage-collecting any that are not, so that after Fsck returns,
// List exposes only checkpoints Restore would accept.
//
// Fsck must run while no writer is active (startup, before the
// Checkpointer issues saves): the orphan-shard and temp sweeps cannot
// distinguish a crash's debris from a commit in flight.

// FsckReport says what the sweep found and removed.
type FsckReport struct {
	TempRemoved    []string // stale temp files unlinked
	OrphansRemoved []string // shard objects with no (or no matching) committed base
	GroupsRemoved  []string // partially committed or corrupt checkpoint bases GC'd
	Committed      []string // checkpoint bases that verified fully committed
}

// Clean reports whether the sweep found nothing to repair.
func (r *FsckReport) Clean() bool {
	return len(r.TempRemoved) == 0 && len(r.OrphansRemoved) == 0 && len(r.GroupsRemoved) == 0
}

// String summarizes the sweep for logs.
func (r *FsckReport) String() string {
	return fmt.Sprintf("fsck: %d committed, %d partial group(s) removed, %d orphan shard(s) removed, %d temp file(s) removed",
		len(r.Committed), len(r.GroupsRemoved), len(r.OrphansRemoved), len(r.TempRemoved))
}

// Fsck sweeps storage into a crash-consistent state: stale temp files
// and orphan shard objects are removed, every visible checkpoint is
// integrity-verified end to end, and partially committed or corrupt
// groups are garbage-collected (manifest first, so the group stops
// being a recovery target before its shards go). Static blobs and
// unrecognized names are left untouched. After a clean return, List
// exposes only fully committed checkpoints and Recover lands on the
// newest of them.
func Fsck(st Storage) (*FsckReport, error) {
	removed, err := st.SweepTemp()
	rep := &FsckReport{TempRemoved: removed}
	if err != nil {
		return rep, err
	}
	names, err := st.List()
	if err != nil {
		return rep, err
	}
	var bases []string
	shardsByBase := map[string][]string{}
	for _, n := range names {
		if base, _, ok := shard.ShardBase(n); ok {
			if _, isCkpt := parseCkptName(base); isCkpt {
				shardsByBase[base] = append(shardsByBase[base], n)
				continue
			}
		}
		if _, ok := parseCkptName(n); ok {
			bases = append(bases, n)
		}
	}
	sort.Strings(bases)
	liveShards := map[string]bool{}
	for _, base := range bases {
		man, err := verifyGroup(st, base)
		if err != nil {
			if derr := shard.Delete(st, base); derr != nil {
				return rep, derr
			}
			rep.GroupsRemoved = append(rep.GroupsRemoved, base)
			continue
		}
		rep.Committed = append(rep.Committed, base)
		if man != nil {
			for _, s := range man.Shards {
				liveShards[s.Name] = true
			}
		}
	}
	committed := map[string]bool{}
	for _, b := range rep.Committed {
		committed[b] = true
	}
	for base, objs := range shardsByBase {
		for _, n := range objs {
			if committed[base] && liveShards[n] {
				continue
			}
			if err := st.Delete(n); err != nil {
				return rep, err
			}
			rep.OrphansRemoved = append(rep.OrphansRemoved, n)
		}
	}
	sort.Strings(rep.TempRemoved)
	sort.Strings(rep.OrphansRemoved)
	return rep, nil
}

// verifyGroup integrity-checks the checkpoint stored under base: for a
// sharded group, the manifest must parse and every shard must pass
// through shard.Reader, the restore walk's own gate (present, with its
// manifest size and CRC32C); for a monolithic object, the payload must
// carry the snapshot magic and pass its IEEE CRC trailer. It returns
// the parsed manifest (nil for monolithic) on success, and the first
// integrity error otherwise.
func verifyGroup(st Storage, base string) (*shard.Manifest, error) {
	data, err := st.Read(base)
	if err != nil {
		return nil, err
	}
	if !shard.IsManifest(data) {
		return nil, verifyMonolithic(data)
	}
	man, err := shard.ParseManifest(data)
	if err != nil {
		return nil, err
	}
	err = shard.NewReader(st, man).Process(shard.Options{Workers: 1}, func(int, int, []byte) error { return nil })
	if err != nil {
		return nil, err
	}
	return man, nil
}

// verifyMonolithic checks a monolithic snapshot payload's framing: the
// IEEE CRC32 trailer over everything before it, then the magic. It is
// the restore walk's gate for a monolithic object, so its CRC message
// is the one a rejected restore attempt reports.
func verifyMonolithic(data []byte) error {
	if len(data) < len(fileMagic)+4 ||
		crc32.ChecksumIEEE(data[:len(data)-4]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return fmt.Errorf("CRC mismatch (corrupt checkpoint)")
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return fmt.Errorf("bad magic")
	}
	return nil
}
