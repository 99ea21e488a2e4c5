package certgen

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"testing"
)

// unsievedPrime is deterministicPrime before the small-prime sieve: every
// step goes to ProbablyPrime. It is the reference the sieved search must
// reproduce exactly.
func unsievedPrime(r io.Reader, bits int) (*big.Int, error) {
	buf := make([]byte, bits/8)
	two := big.NewInt(2)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		buf[0] |= 0xC0
		buf[len(buf)-1] |= 1
		p := new(big.Int).SetBytes(buf)
		for i := 0; i < 4096; i++ {
			if p.BitLen() != bits {
				break
			}
			if p.ProbablyPrime(20) {
				return p, nil
			}
			p.Add(p, two)
		}
	}
}

// TestSievedPrimeMatchesUnsieved runs both searches on the same DRBG
// streams: the sieve must return the same prime and leave the stream at
// the same position, so keys drawn after it are unchanged too.
func TestSievedPrimeMatchesUnsieved(t *testing.T) {
	for i := 0; i < 64; i++ {
		bits := 256 + 64*(i%5) // 256..512
		seed := fmt.Sprintf("sieve-%d", i)
		a, b := newDRBG(seed), newDRBG(seed)
		got, err := deterministicPrime(a, bits)
		if err != nil {
			t.Fatal(err)
		}
		want, err := unsievedPrime(b, bits)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("seed %q, %d bits: sieved %x, unsieved %x", seed, bits, got, want)
		}
		assertSamePosition(t, a, b)
	}
}

// TestSievedPrimeRedrawsAtTop feeds a first draw of all ones, whose search
// runs off the top of the bit length at once: both searches must redraw
// and agree on the prime from the next draw.
func TestSievedPrimeRedrawsAtTop(t *testing.T) {
	const bits = 256
	top := bytes.Repeat([]byte{0xff}, bits/8)
	a := io.MultiReader(bytes.NewReader(top), newDRBG("top"))
	b := io.MultiReader(bytes.NewReader(top), newDRBG("top"))
	got, err := deterministicPrime(a, bits)
	if err != nil {
		t.Fatal(err)
	}
	want, err := unsievedPrime(b, bits)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 || got.BitLen() != bits {
		t.Fatalf("sieved %x, unsieved %x", got, want)
	}
	assertSamePosition(t, a, b)
}

func assertSamePosition(t *testing.T, a, b io.Reader) {
	t.Helper()
	na, nb := make([]byte, 16), make([]byte, 16)
	if _, err := io.ReadFull(a, na); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(b, nb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(na, nb) {
		t.Fatal("searches consumed different amounts of the stream")
	}
}

func TestOddPrimesBelow(t *testing.T) {
	ps := oddPrimesBelow(1 << 14)
	if len(ps) != 1899 || ps[0] != 3 || ps[len(ps)-1] != 16381 {
		t.Fatalf("got %d primes, first %d, last %d", len(ps), ps[0], ps[len(ps)-1])
	}
	for _, q := range ps {
		if !new(big.Int).SetUint64(q).ProbablyPrime(20) {
			t.Fatalf("%d is not prime", q)
		}
	}
}
