package storage

import (
	"pioeval/internal/des"
	"pioeval/internal/pfs"
)

// DirectPFS routes every operation straight to the parallel file system
// through one pfs.Client — the pre-seam data path, preserved bit for bit
// (the simfs golden transcript gates this). It is a pure adapter: no
// state, no extra simulated time, no reordering. It is the client itself,
// seen as a Target, so adapting one allocates nothing.
type DirectPFS pfs.Client

// Direct returns an existing PFS client as a Target.
func Direct(c *pfs.Client) *DirectPFS { return (*DirectPFS)(c) }

// client returns the PFS client d is.
func (d *DirectPFS) client() *pfs.Client { return (*pfs.Client)(d) }

// Create creates path on the PFS and returns its handle.
func (d *DirectPFS) Create(p *des.Proc, path string, stripeCount int, stripeSize int64) (Handle, error) {
	h, err := d.client().Create(p, path, stripeCount, stripeSize)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Open opens path on the PFS.
func (d *DirectPFS) Open(p *des.Proc, path string) (Handle, error) {
	h, err := d.client().Open(p, path)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Stat returns PFS file metadata.
func (d *DirectPFS) Stat(p *des.Proc, path string) (FileInfo, error) {
	return d.client().Stat(p, path)
}

// Mkdir creates a directory on the PFS.
func (d *DirectPFS) Mkdir(p *des.Proc, path string) error { return d.client().Mkdir(p, path) }

// Rmdir removes an empty PFS directory.
func (d *DirectPFS) Rmdir(p *des.Proc, path string) error { return d.client().Rmdir(p, path) }

// Unlink removes a PFS file.
func (d *DirectPFS) Unlink(p *des.Proc, path string) error { return d.client().Unlink(p, path) }

// Readdir lists a PFS directory.
func (d *DirectPFS) Readdir(p *des.Proc, path string) ([]string, error) {
	return d.client().Readdir(p, path)
}
