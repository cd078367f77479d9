package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dynasore/pkg/dynasore"
)

// dirBytes is the total size of the regular files under dir, leaving out
// *.tmp staging files, which exist only while a snapshot is being written.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // a file rotated or compacted away mid-walk
			}
			return err
		}
		if e.Type().IsRegular() && !strings.HasSuffix(e.Name(), ".tmp") {
			info, err := e.Info()
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func dirsBytes(dirs []string) (int64, error) {
	var total int64
	for _, d := range dirs {
		n, err := dirBytes(d)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// timeReopen measures OpenStore on a copy of dir, in ms.
func timeReopen(dir, tmpDir string) (float64, error) {
	if err := copyDir(dir, tmpDir); err != nil {
		return 0, fmt.Errorf("copy %s: %w", dir, err)
	}
	defer os.RemoveAll(tmpDir)
	start := time.Now()
	s, err := dynasore.OpenStore(tmpDir, viewCap)
	if err != nil {
		return 0, fmt.Errorf("reopen %s: %w", tmpDir, err)
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	return ms, s.Close()
}

// checkStores opens each closed broker's data dir with OpenStore. Every
// store must hold every written user, and served through a fresh
// single-broker cluster, the store of the broker that sequenced a user's
// writes (its front-end's) must return the newest acknowledged one; peers
// receive writes asynchronously, so their tails may trail by design.
func (r *runner) checkStores(ctx context.Context, dirs []string) (attempted, failed int64, err error) {
	for f, dir := range dirs {
		a, fl, err := r.checkStore(ctx, f, dir)
		attempted += a
		failed += fl
		if err != nil {
			return attempted, failed, fmt.Errorf("broker %d store: %w", f, err)
		}
	}
	return attempted, failed, nil
}

func (r *runner) checkStore(ctx context.Context, f int, dir string) (attempted, failed int64, err error) {
	st, err := dynasore.OpenStore(dir, viewCap)
	if err != nil {
		return 0, 0, err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	if n := st.Users(); n < r.p.w.Users {
		r.violate("broker %d store holds %d users after Close, %d were written", f, n, r.p.w.Users)
		failed++
	}
	srv, err := dynasore.ListenCacheServer("127.0.0.1:0")
	if err != nil {
		return 0, failed, err
	}
	defer srv.Close()
	b, err := dynasore.ListenBroker(dynasore.BrokerConfig{
		Addr:             "127.0.0.1:0",
		CacheServerAddrs: []string{srv.Addr()},
		Store:            st,
		ViewCap:          viewCap,
	})
	if err != nil {
		return 0, failed, err
	}
	defer b.Close()
	c, err := dynasore.Dial(ctx, b.Addr())
	if err != nil {
		return 0, failed, err
	}
	defer c.Close()
	// The users this broker sequenced: front-end f serves u mod 3 == f.
	var mine []uint32
	for u := f; u < r.p.w.Users; u += len(brokerPositions) {
		mine = append(mine, uint32(u))
	}
	const batch = 256
	for lo := 0; lo < len(mine); lo += batch {
		users := mine[lo:min(lo+batch, len(mine))]
		attempted += int64(len(users))
		views, err := c.Read(ctx, users)
		if err != nil {
			r.violate("broker %d store: read of %d users from %d: %v", f, len(users), users[0], err)
			failed += int64(len(users))
			continue
		}
		for i, u := range users {
			if floor := r.floor(u); views[i].Version < floor {
				r.violate("broker %d store: user %d at version %d, acknowledged %d", f, u, views[i].Version, floor)
				failed++
			}
		}
	}
	return attempted, failed, nil
}
