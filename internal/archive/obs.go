package archive

// Context-aware entry points. The archive layer's two heavy operations —
// compiling a database into a rootpack and decoding one back — are span
// boundaries in the ingestion traces; the ctx-less originals delegate
// here and stay span-free, so nothing changes for existing callers.

import (
	"context"
	"strconv"

	"repro/internal/obs"
	"repro/internal/store"
)

// WriteFileCtx is WriteFile wrapped in an "archive.compile" span carrying
// the snapshot count and output size.
func WriteFileCtx(ctx context.Context, path string, db *store.Database, sourceHash [HashLen]byte) ([HashLen]byte, error) {
	hs, err := WriteFileHashesCtx(ctx, path, db, sourceHash)
	return hs.Content, err
}

// WriteFileHashesCtx is WriteFileCtx returning both of the archive's
// hashes (see encodeHashes).
func WriteFileHashesCtx(ctx context.Context, path string, db *store.Database, sourceHash [HashLen]byte) (Hashes, error) {
	_, span := obs.StartSpan(ctx, "archive.compile")
	defer span.End()
	span.SetAttr("snapshots", strconv.Itoa(db.TotalSnapshots()))
	hs, err := writeFile(path, db, sourceHash)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	return hs, err
}

// DatabaseCtx is Database wrapped in an "archive.decode" span carrying
// the archive's size and unique-cert count.
func (r *Reader) DatabaseCtx(ctx context.Context) (*store.Database, error) {
	_, span := obs.StartSpan(ctx, "archive.decode")
	defer span.End()
	span.SetAttr("bytes", strconv.FormatInt(r.size, 10))
	db, _, err := r.decode()
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	return db, err
}
