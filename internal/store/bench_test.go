package store

import (
	"fmt"
	"testing"
)

// BenchmarkStoreGet measures the path the server's result fetches ride:
// a Get that reads its record from the pack, served by the OS page cache
// once the file is warm. Tracked by cmd/benchgate in CI.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	data := []byte(`{"kernel":"matmul","points":[{"memory":4,"ops":1024,"ratio":2.0}]}`)
	key := Key(data)
	if err := s.Put(key, data); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(key); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

// BenchmarkStorePut measures the durable write path — one record append
// to the pack and one fsync — for distinct small blobs.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := []byte(fmt.Sprintf("blob-%d", i))
		if err := s.Put(Key(data), data); err != nil {
			b.Fatal(err)
		}
	}
}
