package certgen

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// drbg is a deterministic byte stream (SHA-256 in counter mode) used to make
// key generation reproducible for a given corpus seed. It is NOT a
// cryptographically vetted DRBG and must only be used for synthetic-corpus
// material.
type drbg struct {
	seed    [32]byte
	counter uint64
	buf     []byte
}

func newDRBG(seed string) *drbg {
	return &drbg{seed: sha256.Sum256([]byte(seed))}
}

func (d *drbg) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(d.buf) == 0 {
			var block [40]byte
			copy(block[:32], d.seed[:])
			binary.BigEndian.PutUint64(block[32:], d.counter)
			d.counter++
			sum := sha256.Sum256(block[:])
			d.buf = sum[:]
		}
		c := copy(p[n:], d.buf)
		d.buf = d.buf[c:]
		n += c
	}
	return n, nil
}

var _ io.Reader = (*drbg)(nil)

// KeyPool hands out reusable private keys by class. Generating thousands of
// distinct RSA keys for a synthetic corpus would dominate runtime without
// changing any measured property (the analyses care about key class, not key
// identity), so the pool cycles through a small number of keys per class.
type KeyPool struct {
	mu   sync.Mutex
	seed string
	rsa  map[int][]*rsa.PrivateKey
	ec   []*ecdsa.PrivateKey
	// PerClass is the number of distinct keys per class (default 4).
	perClass int
}

// NewKeyPool creates a pool whose keys are a deterministic function of seed.
func NewKeyPool(seed string) *KeyPool {
	return &KeyPool{seed: seed, rsa: make(map[int][]*rsa.PrivateKey), perClass: 4}
}

// RSA returns the i-th (mod pool size) RSA key with the given modulus size.
func (p *KeyPool) RSA(bits, i int) (*rsa.PrivateKey, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := p.rsa[bits]
	if len(keys) == 0 {
		keys = make([]*rsa.PrivateKey, 0, p.perClass)
		r := newDRBG(fmt.Sprintf("%s/rsa/%d", p.seed, bits))
		for k := 0; k < p.perClass; k++ {
			key, err := deterministicRSA(r, bits)
			if err != nil {
				return nil, fmt.Errorf("certgen: generate RSA-%d: %w", bits, err)
			}
			keys = append(keys, key)
		}
		p.rsa[bits] = keys
	}
	return keys[((i%len(keys))+len(keys))%len(keys)], nil
}

// primeSearchSteps bounds deterministicPrime's upward search from one
// draw: candidate i is draw + 2i.
const primeSearchSteps = 4096

// sievePrimes are the odd primes below 2^14, the trial divisors each draw's
// search window is sieved with before any candidate is tested.
var sievePrimes = oddPrimesBelow(1 << 14)

// deterministicPrime draws a random odd candidate of exactly `bits` bits
// from the reader and searches upward for a probable prime. Unlike
// crypto/rand.Prime — which deliberately injects nondeterminism via
// randutil.MaybeReadByte — this is a pure function of the reader stream,
// which is what corpus reproducibility needs. ProbablyPrime(20) plus the
// Baillie-PSW test it performs is deterministic for a given candidate.
//
// Steps whose candidate has a factor below 2^14 are sieved out up front:
// such a candidate is composite (every candidate exceeds 2^63), so
// ProbablyPrime would reject it anyway, and skipping it leaves the first
// probable prime — and with it every key — unchanged.
func deterministicPrime(r io.Reader, bits int) (*big.Int, error) {
	if bits%8 != 0 || bits < 64 {
		return nil, fmt.Errorf("certgen: prime bits must be a positive multiple of 8, got %d", bits)
	}
	buf := make([]byte, bits/8)
	var composite [primeSearchSteps]bool
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		buf[0] |= 0xC0       // exact bit length, product reaches 2*bits
		buf[len(buf)-1] |= 1 // odd
		base := new(big.Int).SetBytes(buf)
		sieveSteps(&composite, base)
		for i := 0; i < primeSearchSteps; i++ {
			if composite[i] {
				continue
			}
			p := new(big.Int).SetInt64(int64(2 * i))
			p.Add(p, base)
			if p.BitLen() != bits {
				break // ran off the top; redraw
			}
			if p.ProbablyPrime(20) {
				return p, nil
			}
		}
	}
}

// sieveSteps marks composite[i] when base + 2i has a factor in
// sievePrimes. base is odd, so for each prime q the multiples of q fall on
// every q-th step from the first i with 2i ≡ -base (mod q).
func sieveSteps(composite *[primeSearchSteps]bool, base *big.Int) {
	*composite = [primeSearchSteps]bool{}
	var qb, rem big.Int
	for _, q := range sievePrimes {
		r := rem.Mod(base, qb.SetUint64(q)).Uint64()
		half := (q + 1) / 2 // the inverse of 2 mod q
		for i := (q - r) % q * half % q; i < primeSearchSteps; i += q {
			composite[i] = true
		}
	}
}

// oddPrimesBelow lists the odd primes below n by the sieve of
// Eratosthenes.
func oddPrimesBelow(n int) []uint64 {
	notPrime := make([]bool, n)
	var out []uint64
	for k := 3; k < n; k += 2 {
		if notPrime[k] {
			continue
		}
		out = append(out, uint64(k))
		for m := k * k; m < n; m += 2 * k {
			notPrime[m] = true
		}
	}
	return out
}

// deterministicRSA builds an RSA key from primes drawn off the DRBG.
// rsa.GenerateKey deliberately injects nondeterminism (randutil.MaybeReadByte)
// even with a caller-supplied reader, which would break corpus
// reproducibility, so the pool assembles keys itself.
func deterministicRSA(r io.Reader, bits int) (*rsa.PrivateKey, error) {
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for {
		p, err := deterministicPrime(r, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := deterministicPrime(r, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		d := new(big.Int)
		if d.ModInverse(e, phi) == nil {
			continue // e not invertible mod phi; redraw primes
		}
		key := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: n, E: int(e.Int64())},
			D:         d,
			Primes:    []*big.Int{p, q},
		}
		key.Precompute()
		if err := key.Validate(); err != nil {
			continue
		}
		return key, nil
	}
}

// deterministicECDSA derives a P-256 key directly from reader bytes
// (ecdsa.GenerateKey is intentionally nondeterministic, like
// rsa.GenerateKey).
func deterministicECDSA(r io.Reader) (*ecdsa.PrivateKey, error) {
	curve := elliptic.P256()
	buf := make([]byte, 32)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	nMinus1 := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
	d := new(big.Int).SetBytes(buf)
	d.Mod(d, nMinus1).Add(d, big.NewInt(1)) // d in [1, N-1]
	key := &ecdsa.PrivateKey{D: d}
	key.Curve = curve
	key.X, key.Y = curve.ScalarBaseMult(d.Bytes())
	return key, nil
}

// ECDSAP256 returns the i-th (mod pool size) P-256 key.
func (p *KeyPool) ECDSAP256(i int) (*ecdsa.PrivateKey, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ec) == 0 {
		r := newDRBG(p.seed + "/ecdsa/p256")
		for k := 0; k < p.perClass; k++ {
			key, err := deterministicECDSA(r)
			if err != nil {
				return nil, fmt.Errorf("certgen: generate P-256: %w", err)
			}
			p.ec = append(p.ec, key)
		}
	}
	return p.ec[((i%len(p.ec))+len(p.ec))%len(p.ec)], nil
}
