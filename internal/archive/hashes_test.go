package archive

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncodeHashesDatabaseHash: the database hash one encoding pass forks
// off equals HashDatabase for any source hash, and the content hash is
// what Encode returns.
func TestEncodeHashesDatabaseHash(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		db := randomDatabase(t, rand.New(rand.NewSource(seed)))
		want, err := HashDatabase(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range [][HashLen]byte{{}, {1, 2, 3}, {0xff}} {
			var buf bytes.Buffer
			hs, err := encodeHashes(&buf, db, src)
			if err != nil {
				t.Fatal(err)
			}
			if hs.Database != want {
				t.Fatalf("seed %d source %x: database hash %x, HashDatabase %x", seed, src[:2], hs.Database[:8], want[:8])
			}
			content, err := Encode(&bytes.Buffer{}, db, src)
			if err != nil {
				t.Fatal(err)
			}
			if hs.Content != content {
				t.Fatalf("seed %d: encodeHashes content hash differs from Encode", seed)
			}
			if (src == [HashLen]byte{}) != (hs.Content == hs.Database) {
				t.Fatalf("seed %d source %x: content and database hashes equal=%v", seed, src[:2], hs.Content == hs.Database)
			}
		}
	}
}

// TestReaderDatabaseHash: an archive's bytes alone give its database's
// HashDatabase value, and a damaged file gives an error instead.
func TestReaderDatabaseHash(t *testing.T) {
	db := randomDatabase(t, rand.New(rand.NewSource(7)))
	want, err := HashDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := encodeToBytes(t, db)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.DatabaseHash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("DatabaseHash %x, HashDatabase %x", got[:8], want[:8])
	}

	damaged := append([]byte(nil), data...)
	damaged[len(magic)+8] ^= 0x01
	r, err = NewReader(bytes.NewReader(damaged), int64(len(damaged)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.DatabaseHash(); !IsCorrupt(err) {
		t.Fatalf("damaged archive: err %v, want a corrupt-archive error", err)
	}
}
