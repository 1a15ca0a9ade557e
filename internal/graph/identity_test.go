package graph

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"testing"
)

// dagDigest is an FNV-64a digest of everything a builder decides: the DAG's
// algorithm and size, every task's identity, tile size, footprint and edge
// lists, the tile-size map, and the topological order.
func dagDigest(d *DAG) uint64 {
	h := fnv.New64a()
	word := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	ints := func(s []int) {
		word(len(s))
		for _, v := range s {
			word(v)
		}
	}
	fmt.Fprintf(h, "%s|", d.Algorithm)
	word(d.P)
	word(len(d.Tasks))
	for _, t := range d.Tasks {
		word(t.ID)
		word(int(t.Kind))
		word(t.I)
		word(t.J)
		word(t.K)
		word(t.NB)
		word(len(t.Footprint))
		for _, r := range t.Footprint {
			word(r.I)
			word(r.J)
			word(int(r.Mode))
		}
		ints(t.Pred)
		ints(t.Succ)
	}
	tileNBDigest(h, d.TileNB)
	order, err := d.TopoOrder()
	if err != nil {
		fmt.Fprintf(h, "err:%v", err)
	}
	ints(order)
	return h.Sum64()
}

func tileNBDigest(h hash.Hash64, m map[[2]int]int) {
	keys := make([][2]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	fmt.Fprintf(h, "tilenb:%d|", len(keys))
	for _, k := range keys {
		fmt.Fprintf(h, "%d,%d=%d|", k[0], k[1], m[k])
	}
}

// identityBuilders lists every DAG builder at size p, keyed by a label that
// names the call. CholeskySplit panics below one tile and is left out there.
func identityBuilders(p int) map[string]func() *DAG {
	b := map[string]func() *DAG{
		"Cholesky":            func() *DAG { return Cholesky(p) },
		"CholeskyLeftLooking": func() *DAG { return CholeskyLeftLooking(p) },
		"BandedCholesky/bw=2": func() *DAG { return BandedCholesky(p, 2) },
		"LU":                  func() *DAG { return LU(p) },
		"QR":                  func() *DAG { return QR(p) },
		"ForwardSolve":        func() *DAG { return ForwardSolve(p) },
		"BackwardSolve":       func() *DAG { return BackwardSolve(p) },
		"Merge/chol+lu+fwd":   func() *DAG { return Merge(Cholesky(p), LU(p), ForwardSolve(p)) },
		"RandomLayered":       func() *DAG { return RandomLayered(p, 5, 0.4, int64(p)) },
	}
	if p >= 1 {
		b["CholeskySplit/half"] = func() *DAG { return CholeskySplit(p, p/2, 2, 960) }
		b["CholeskySplit/factor=1"] = func() *DAG { return CholeskySplit(p, 0, 1, 960) }
		b["CholeskySplit/fromK=p"] = func() *DAG { return CholeskySplit(p, p, 2, 960) }
		b["CholeskySplit/full=3"] = func() *DAG { return CholeskySplit(p, 0, 3, 960) }
	}
	return b
}

// identityGolden pins the digest of every builder's output: a change to the
// builders or to the DAG's cached order must leave every DAG bit-identical.
var identityGolden = map[string]uint64{
	"BackwardSolve/p=-3":          0x8c723bc46238a48a,
	"BackwardSolve/p=0":           0x816f9aefc7ae20d4,
	"BackwardSolve/p=1":           0xb4ea96feded0f6d3,
	"BackwardSolve/p=16":          0xb04f9bef53a1527a,
	"BackwardSolve/p=2":           0xdb7ece688e8c7f5b,
	"BackwardSolve/p=33":          0xdfaf146fcce2047d,
	"BackwardSolve/p=5":           0x568d96c352fbef2b,
	"BandedCholesky/bw=2/p=-3":    0x5913da79bef5fb4d,
	"BandedCholesky/bw=2/p=0":     0xcb1a543edaea83a7,
	"BandedCholesky/bw=2/p=1":     0x1e4040b00b055596,
	"BandedCholesky/bw=2/p=16":    0x99ccb38db0a05b45,
	"BandedCholesky/bw=2/p=2":     0x55359d83bd05f2a6,
	"BandedCholesky/bw=2/p=33":    0xe30b6827a81b1d25,
	"BandedCholesky/bw=2/p=5":     0x8b469c98efb98795,
	"Cholesky/p=-3":               0x5913da79bef5fb4d,
	"Cholesky/p=0":                0xcb1a543edaea83a7,
	"Cholesky/p=1":                0x1e4040b00b055596,
	"Cholesky/p=16":               0x40a6c961a06a21ea,
	"Cholesky/p=2":                0x55359d83bd05f2a6,
	"Cholesky/p=33":               0x86f45d5f2a2290ba,
	"Cholesky/p=5":                0xa54919d294f287a7,
	"CholeskyLeftLooking/p=-3":    0x5913da79bef5fb4d,
	"CholeskyLeftLooking/p=0":     0xcb1a543edaea83a7,
	"CholeskyLeftLooking/p=1":     0x1e4040b00b055596,
	"CholeskyLeftLooking/p=16":    0xf8585564be1cebd3,
	"CholeskyLeftLooking/p=2":     0x55359d83bd05f2a6,
	"CholeskyLeftLooking/p=33":    0x4d54e4575a96a8c7,
	"CholeskyLeftLooking/p=5":     0xcca939738d665951,
	"CholeskySplit/factor=1/p=1":  0x754d52e97f94b07d,
	"CholeskySplit/factor=1/p=16": 0x42f35ec28c2f8e22,
	"CholeskySplit/factor=1/p=2":  0xa0ed756b875a0272,
	"CholeskySplit/factor=1/p=33": 0x114845550c05c361,
	"CholeskySplit/factor=1/p=5":  0x6a8905752e09ab5c,
	"CholeskySplit/fromK=p/p=1":   0x754d52e97f94b07d,
	"CholeskySplit/fromK=p/p=16":  0x42f35ec28c2f8e22,
	"CholeskySplit/fromK=p/p=2":   0xa0ed756b875a0272,
	"CholeskySplit/fromK=p/p=33":  0x114845550c05c361,
	"CholeskySplit/fromK=p/p=5":   0x6a8905752e09ab5c,
	"CholeskySplit/full=3/p=1":    0x26a293554fd13574,
	"CholeskySplit/full=3/p=16":   0x2632d645f92feeb7,
	"CholeskySplit/full=3/p=2":    0xfa17e8d1c7895909,
	"CholeskySplit/full=3/p=33":   0x6d34c6779e4b55dd,
	"CholeskySplit/full=3/p=5":    0xa8685ceab784fc0c,
	"CholeskySplit/half/p=1":      0xc4e76dd4f177f952,
	"CholeskySplit/half/p=16":     0x2f3c860e6ae62cb1,
	"CholeskySplit/half/p=2":      0x2c773d751d78bea0,
	"CholeskySplit/half/p=33":     0x0eb99a6b0929faad,
	"CholeskySplit/half/p=5":      0xd702d1bdf7a41ba3,
	"ForwardSolve/p=-3":           0xf25f44c8495befb4,
	"ForwardSolve/p=0":            0xc41c26718ef89eda,
	"ForwardSolve/p=1":            0x6cf51410214e9ded,
	"ForwardSolve/p=16":           0xff8cd4df23d9eed4,
	"ForwardSolve/p=2":            0x9a234a31dc3f7b01,
	"ForwardSolve/p=33":           0x030940e64e670a73,
	"ForwardSolve/p=5":            0xbabeec6f063b6a51,
	"LU/p=-3":                     0x9bbd0a06216238ee,
	"LU/p=0":                      0x374f3f215af1a9d8,
	"LU/p=1":                      0x4366b10fd028b38d,
	"LU/p=16":                     0x3b9870240c1a839c,
	"LU/p=2":                      0xc19f47f6f52e737d,
	"LU/p=33":                     0x1f9200c784656e55,
	"LU/p=5":                      0xe703638855c15853,
	"Merge/chol+lu+fwd/p=-3":      0xdce87a3ff80eb021,
	"Merge/chol+lu+fwd/p=0":       0xdce87a3ff80eb021,
	"Merge/chol+lu+fwd/p=1":       0xb0a61fc4ccb2785c,
	"Merge/chol+lu+fwd/p=16":      0x908213d9ab0cb968,
	"Merge/chol+lu+fwd/p=2":       0x9cd5239a040f81f0,
	"Merge/chol+lu+fwd/p=33":      0x62359310c1ac96bd,
	"Merge/chol+lu+fwd/p=5":       0x5eef658816ba1727,
	"QR/p=-3":                     0xc5ef964ec1a6b23e,
	"QR/p=0":                      0xc8879c889315a368,
	"QR/p=1":                      0xb4802818a933cfe2,
	"QR/p=16":                     0x7cb920c7af5015ae,
	"QR/p=2":                      0xa921e01c663a72a2,
	"QR/p=33":                     0xd8298e353f4a91f1,
	"QR/p=5":                      0x3a7e7e146a24da18,
	"RandomLayered/p=-3":          0x077729de10b493f6,
	"RandomLayered/p=0":           0x18d15238b007cb40,
	"RandomLayered/p=1":           0xcbbb7ff2f98e625d,
	"RandomLayered/p=16":          0x9ae0306d20bae829,
	"RandomLayered/p=2":           0x5491f3fb7300e440,
	"RandomLayered/p=33":          0x2544535cf8721efe,
	"RandomLayered/p=5":           0x84836f657ccad89b,
}

func TestDAGIdentityGolden(t *testing.T) {
	var labels []string
	got := map[string]uint64{}
	for _, p := range []int{-3, 0, 1, 2, 5, 16, 33} {
		for name, build := range identityBuilders(p) {
			label := fmt.Sprintf("%s/p=%d", name, p)
			labels = append(labels, label)
			got[label] = dagDigest(build())
		}
	}
	sort.Strings(labels)
	for _, l := range labels {
		want, ok := identityGolden[l]
		if !ok {
			t.Errorf("%q: 0x%016x, // no golden", l, got[l])
			continue
		}
		if got[l] != want {
			t.Errorf("%s: digest %016x, want %016x", l, got[l], want)
		}
	}
	if len(identityGolden) != len(labels) {
		t.Errorf("golden has %d entries, builders produce %d", len(identityGolden), len(labels))
	}
}
