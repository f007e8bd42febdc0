package pager

import (
	"math/rand"
	"testing"
)

func benchPager(b *testing.B, opts Options) *Pager {
	b.Helper()
	p, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	return p
}

func BenchmarkReadHit(b *testing.B) {
	p := benchPager(b, Options{PageSize: 4096, PoolPages: 64})
	id, _ := p.Alloc()
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Read(id, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadMissMem(b *testing.B) {
	// Pool of 2 over 64 pages: nearly every read misses and evicts.
	p := benchPager(b, Options{PageSize: 4096, PoolPages: 2})
	for i := 0; i < 64; i++ {
		p.Alloc()
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Read(PageID(i%64), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteThroughPool(b *testing.B) {
	p := benchPager(b, Options{PageSize: 4096, PoolPages: 64})
	for i := 0; i < 32; i++ {
		p.Alloc()
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Write(PageID(i%32), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadZipf(b *testing.B) {
	p := benchPager(b, Options{PageSize: 4096, PoolPages: 32})
	const pages = 256
	for i := 0; i < pages; i++ {
		p.Alloc()
	}
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.3, 1, pages-1)
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Read(PageID(z.Uint64()), buf); err != nil {
			b.Fatal(err)
		}
	}
}
