package server

// The encode-buffer pool: writeJSONStatus, writeError, the batch item
// encoder and the Prometheus exposition append their bytes into a recycled
// buffer. Request and response DTOs are plain heap values (DESIGN.md §8).

import "sync"

// maxPooledBufBytes caps a recycled buffer, so one huge response cannot
// park a huge buffer in the pool forever.
const maxPooledBufBytes = 64 << 10

// byteBuf boxes a byte slice so the pool stores pointers (a plain []byte
// would be boxed into a fresh interface allocation on every Put).
type byteBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return &byteBuf{b: make([]byte, 0, 4096)} }}

func getBuf() *byteBuf { return bufPool.Get().(*byteBuf) }

func putBuf(bb *byteBuf) {
	if bb == nil || cap(bb.b) > maxPooledBufBytes {
		return
	}
	bb.b = bb.b[:0]
	bufPool.Put(bb)
}
