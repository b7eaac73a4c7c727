// Command gkfs-fsck walks a live GekkoFS namespace and checks its
// invariants from the outside, through the same client protocol
// applications use:
//
//   - every directory entry resolves to a stat-able record,
//   - listed entry metadata (kind, size) agrees with per-path stat,
//   - every regular file's bytes are readable end-to-end (first, middle
//     and last chunk-sized probes; -deep reads everything),
//   - relaxed-POSIX expectations hold (no dangling descendants under
//     removed directories observed during the walk),
//   - with -manifest, a staging manifest cross-checks against live
//     cluster metadata: every recorded entry must exist with the
//     recorded kind and size (missing or mismatched entries are
//     problems — staged input that silently vanished or shrank).
//
// Inconsistencies are reported, not repaired — GekkoFS has no fsck in
// the repair sense; a temporary file system is redeployed instead.
//
//	gkfs-fsck -daemons host1:7777,host2:7777 [-root /] [-deep] [-manifest m.txt]
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/staging"
)

type checker struct {
	c     *client.Client
	deep  bool
	chunk int64

	// epoch is what every namespace and data read is made at: the live
	// namespace's client.LiveEpoch, or with -snapshot the tag's pinned
	// epoch — the checker then verifies the pinned view (version history
	// resolution, chunk pre-images).
	epoch uint64

	dirs, files, bytes int64
	problems           int
}

func (ck *checker) problem(format string, args ...interface{}) {
	ck.problems++
	fmt.Printf("PROBLEM: "+format+"\n", args...)
}

// pinned reports whether the checker reads a snapshot rather than the
// live namespace: a pinned view has no concurrent writers to excuse a
// disagreement.
func (ck *checker) pinned() bool { return ck.epoch != client.LiveEpoch }

func (ck *checker) walk(dir string) {
	ents, err := ck.c.ReadDirAt(dir, ck.epoch)
	if err != nil {
		ck.problem("readdir %s: %v", dir, err)
		return
	}
	for _, e := range ents {
		path := dir + "/" + e.Name
		if dir == "/" {
			path = "/" + e.Name
		}
		info, err := ck.c.StatAt(path, ck.epoch)
		if err != nil {
			ck.problem("listed entry %s does not stat: %v", path, err)
			continue
		}
		if info.IsDir() != e.IsDir {
			ck.problem("%s: listing says dir=%v, stat says dir=%v", path, e.IsDir, info.IsDir())
		}
		if info.IsDir() {
			ck.dirs++
			ck.walk(path)
			continue
		}
		ck.files++
		ck.bytes += info.Size()
		if !e.IsDir && e.Size != info.Size() {
			if ck.pinned() {
				// A pinned epoch has no concurrent writers to excuse a
				// lag: both reads resolve the same version history, so
				// disagreement means the history itself is torn.
				ck.problem("%s: snapshot listing size %d != snapshot stat size %d", path, e.Size, info.Size())
			} else {
				// Listings are eventually consistent; sizes may lag under
				// concurrent writers. Flag only on a quiescent system.
				fmt.Printf("note: %s listed size %d != stat size %d (eventual consistency)\n",
					path, e.Size, info.Size())
			}
		}
		ck.checkData(path, info.Size())
	}
}

func (ck *checker) checkData(path string, size int64) {
	if size == 0 {
		return
	}
	probe := func(off, n int64) {
		if n <= 0 {
			return
		}
		// Descriptor-free, at the checker's epoch: the pinned snapshot, or
		// client.LiveEpoch for the live file.
		buf := make([]byte, n)
		got, err := ck.c.ReadSnapshot(path, ck.epoch, buf, off)
		if err != nil && err.Error() != "EOF" && got != int(n) {
			ck.problem("read %s @%d: %d bytes, %v", path, off, got, err)
		}
	}
	if ck.deep {
		for off := int64(0); off < size; off += ck.chunk {
			n := ck.chunk
			if off+n > size {
				n = size - off
			}
			probe(off, n)
		}
		return
	}
	head := min(ck.chunk, size)
	probe(0, head)
	if size > ck.chunk {
		mid := (size / 2) / ck.chunk * ck.chunk
		probe(mid, min(ck.chunk, size-mid))
		tail := (size - 1) / ck.chunk * ck.chunk
		probe(tail, size-tail)
	}
}

// checkManifest cross-checks a staging manifest against the live
// namespace under root: every recorded directory and file must still
// exist with the recorded kind, files with the recorded size. Stats
// travel through the batched metadata plane — one RPC per daemon per
// page, so a 100k-entry manifest doesn't pay 100k round trips. The data
// probes of the main walk are not repeated here — the manifest check is
// about metadata drift between what was staged and what the cluster now
// claims to hold.
func (ck *checker) checkManifest(mf *staging.Manifest, root string) {
	ents := mf.Entries()
	paths := make([]string, len(ents))
	for i, ent := range ents {
		paths[i] = root + "/" + ent.Rel
		if root == "/" {
			paths[i] = "/" + ent.Rel
		}
	}
	infos, errs := ck.c.StatManyAt(paths, ck.epoch)
	hashed := 0
	for i, ent := range ents {
		switch {
		case errs[i] != nil:
			ck.problem("manifest entry %s missing from cluster: %v", paths[i], errs[i])
			continue
		case infos[i].IsDir() != ent.Dir:
			ck.problem("manifest entry %s: recorded dir=%v, cluster says dir=%v",
				paths[i], ent.Dir, infos[i].IsDir())
			continue
		case !ent.Dir && infos[i].Size() != ent.Size:
			ck.problem("manifest entry %s: recorded size %d, cluster size %d",
				paths[i], ent.Size, infos[i].Size())
			continue
		}
		// In snapshot mode a recorded hash is re-provable: the pinned
		// pre-image bytes must still produce it, however many times the
		// live file was overwritten since the tag was staged out.
		if ck.pinned() && !ent.Dir && ent.Hash != "" {
			if sum, err := ck.hashAtEpoch(paths[i], ent.Size); err != nil {
				ck.problem("manifest entry %s: hash pre-image: %v", paths[i], err)
			} else if sum != ent.Hash {
				ck.problem("manifest entry %s: recorded hash %s, epoch pre-image hashes %s",
					paths[i], ent.Hash, sum)
			} else {
				hashed++
			}
		}
	}
	if hashed > 0 {
		fmt.Printf("manifest: cross-checked %d entries (%d pre-image hashes verified)\n", len(ents), hashed)
		return
	}
	fmt.Printf("manifest: cross-checked %d entries\n", len(ents))
}

// hashAtEpoch streams a file's epoch-pinned bytes and returns their
// SHA-256 in the manifest's hex form.
func (ck *checker) hashAtEpoch(path string, size int64) (string, error) {
	h := sha256.New()
	buf := make([]byte, min(ck.chunk, size))
	for off := int64(0); off < size; {
		n, err := ck.c.ReadSnapshot(path, ck.epoch, buf, off)
		if n > 0 {
			h.Write(buf[:n])
			off += int64(n)
		}
		if errors.Is(err, io.EOF) {
			if off != size {
				return "", fmt.Errorf("EOF at %d of %d bytes", off, size)
			}
			break
		}
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func main() {
	var f cli.Flags
	f.RegisterMount(flag.CommandLine)
	root := flag.String("root", "/", "subtree to check")
	deep := flag.Bool("deep", false, "read every byte instead of probing")
	manifest := flag.String("manifest", "", "cross-check this staging manifest against live cluster metadata")
	snapTag := flag.String("snapshot", "", "check the namespace as pinned by this committed snapshot tag instead of the live one; with -manifest, recorded hashes are re-verified against the epoch's chunk pre-images")
	flag.Parse()

	// Mounted like every other client: a daemon that does not answer
	// fails the mount, named.
	c, closeConns, err := client.Mount(f.Target, f.Client)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gkfs-fsck: %v\n", err)
		os.Exit(1)
	}
	defer closeConns()

	ck := &checker{c: c, deep: *deep, chunk: c.ChunkSize(), epoch: client.LiveEpoch}
	if *snapTag != "" {
		epoch, err := c.SnapshotEpoch(*snapTag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gkfs-fsck: snapshot %q: %v\n", *snapTag, err)
			os.Exit(1)
		}
		ck.epoch = epoch
		fmt.Printf("snapshot: checking tag %s, pinned at epoch %d\n", *snapTag, epoch)
	}
	begin := time.Now()
	ck.walk(*root)
	if *manifest != "" {
		mf, err := staging.LoadManifest(*manifest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gkfs-fsck: %v\n", err)
			os.Exit(1)
		}
		ck.checkManifest(mf, *root)
	}
	fmt.Printf("checked %d dirs, %d files, %d bytes in %v: %d problems\n",
		ck.dirs, ck.files, ck.bytes, time.Since(begin).Round(time.Millisecond), ck.problems)
	if ck.problems > 0 {
		os.Exit(1)
	}
}
