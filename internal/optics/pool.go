package optics

import "sync"

// floatPools recycles per-size float buffers — coarse intensity
// accumulators and the image buffers behind Image.I — so the model-OPC
// iteration loop stops allocating a frame per image.
var floatPools sync.Map // int -> *sync.Pool

// getFloats returns a zeroed n-element buffer from the pool.
func getFloats(n int) []float64 {
	v := getFloatsRaw(n)
	clear(v)
	return v
}

// getFloatsRaw is getFloats without the clear: the buffer holds
// whatever its last user left. For callers that assign every element
// before reading.
func getFloatsRaw(n int) []float64 {
	p, ok := floatPools.Load(n)
	if !ok {
		p, _ = floatPools.LoadOrStore(n, &sync.Pool{New: func() any {
			return make([]float64, n)
		}})
	}
	return p.(*sync.Pool).Get().([]float64)
}

func putFloats(v []float64) {
	if p, ok := floatPools.Load(len(v)); ok {
		p.(*sync.Pool).Put(v) //nolint:staticcheck // slice header boxing is fine here
	}
}
