// Package compress provides the uniform codec layer behind GraphH's edge
// cache modes and network-message compression (§IV-B and §IV-C of the
// paper). The paper evaluates four settings — raw, snappy, zlib-1 and
// zlib-3 — and auto-selects among them from per-codec compression ratios:
// the paper's planning estimates (γ₀=1, γ₁=2, γ₂=4, γ₃=5, Table V) or
// ratios measured on the tiles themselves (MeasureRatio).
package compress

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/adler32"
	"io"
	"slices"
	"sync"

	"repro/internal/snappy"
)

// Mode enumerates the paper's cache/communication codecs. The numbering
// follows §IV-B: Mode-1 caches raw tiles, Mode-2 snappy, Mode-3 zlib-1 and
// Mode-4 zlib-3.
type Mode int

const (
	// None stores data uncompressed (cache mode-1).
	None Mode = iota
	// Snappy uses the snappy block format (cache mode-2, default network
	// compressor).
	Snappy
	// Zlib1 uses zlib at compression level 1 (cache mode-3).
	Zlib1
	// Zlib3 uses zlib at compression level 3 (cache mode-4).
	Zlib3
	numModes
)

// Modes lists all codecs in cache-mode order.
var Modes = []Mode{None, Snappy, Zlib1, Zlib3}

// String returns the codec name used in experiment output.
func (m Mode) String() string {
	switch m {
	case None:
		return "raw"
	case Snappy:
		return "snappy"
	case Zlib1:
		return "zlib-1"
	case Zlib3:
		return "zlib-3"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// CacheModeNumber returns the paper's 1-based cache mode number.
func (m Mode) CacheModeNumber() int { return int(m) + 1 }

// ModeByName parses a codec name as printed by String.
func ModeByName(name string) (Mode, error) {
	for _, m := range Modes {
		if m.String() == name {
			return m, nil
		}
	}
	return None, fmt.Errorf("compress: unknown codec %q", name)
}

// MarshalJSON encodes the codec as its String name — the stable wire form
// of ServerStats.CacheMode in the graphhd daemon's JSON schema.
func (m Mode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON parses the name form written by MarshalJSON.
func (m *Mode) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	mode, err := ModeByName(name)
	if err != nil {
		return err
	}
	*m = mode
	return nil
}

// ExpectedRatio returns the paper's planning estimate γᵢ of the codec's
// compression ratio on graph tiles (§IV-B). It is only a prior: the engine
// replaces it with the ratio measured on a sample of its own tiles
// (MeasureRatio) before it plans the cache, because real tiles compress far
// less than these figures on skewed graphs.
func (m Mode) ExpectedRatio() float64 {
	switch m {
	case None:
		return 1
	case Snappy:
		return 2
	case Zlib1:
		return 4
	case Zlib3:
		return 5
	default:
		return 1
	}
}

// MeasureRatio returns the codec's compression ratio γ̂ on samples: their
// total length over the total length of their compressed forms. Each sample
// is compressed on its own, the way the cache compresses one tile per
// entry. Empty input measures 1.
func (m Mode) MeasureRatio(samples [][]byte) (float64, error) {
	var in, out int
	var buf []byte
	for _, s := range samples {
		var err error
		if buf, err = m.AppendCompress(buf[:0], s); err != nil {
			return 0, err
		}
		in += len(s)
		out += len(buf)
	}
	if in == 0 || out == 0 {
		return 1, nil
	}
	return float64(in) / float64(out), nil
}

// Compress encodes src with the codec. The result of every mode is
// self-contained: Decompress recovers src exactly without knowing the
// original length.
func (m Mode) Compress(src []byte) ([]byte, error) {
	return m.AppendCompress(nil, src)
}

// AppendCompress appends the compressed form of src to dst and returns the
// extended slice. When dst has enough spare capacity no allocation occurs —
// the per-superstep wire path reuses one buffer per worker this way. dst and
// src must not overlap.
func (m Mode) AppendCompress(dst, src []byte) ([]byte, error) {
	switch m {
	case None:
		return append(dst, src...), nil
	case Snappy:
		bound := snappy.MaxEncodedLen(len(src))
		if bound < 0 {
			return nil, fmt.Errorf("compress: snappy input too large (%d bytes)", len(src))
		}
		off := len(dst)
		dst = slices.Grow(dst, bound)
		enc := snappy.Encode(dst[off:off+bound], src)
		return dst[:off+len(enc)], nil
	case Zlib1, Zlib3:
		pool := &zlibWriters[m-Zlib1]
		zw, _ := pool.Get().(*zlibWriter)
		if zw == nil {
			zw = new(zlibWriter)
			w, err := zlib.NewWriterLevel(&zw.out, m.zlibLevel())
			if err != nil {
				return nil, fmt.Errorf("compress: %s writer: %w", m, err)
			}
			zw.w = w
		} else {
			zw.w.Reset(&zw.out)
		}
		zw.out.buf = dst
		_, err := zw.w.Write(src)
		if err == nil {
			err = zw.w.Close()
		}
		out := zw.out.buf
		zw.out.buf = nil
		pool.Put(zw)
		if err != nil {
			return nil, fmt.Errorf("compress: %s: %w", m, err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("compress: invalid mode %d", int(m))
	}
}

// Decompress decodes data produced by Compress with the same mode.
func (m Mode) Decompress(data []byte) ([]byte, error) {
	return m.AppendDecompress(nil, data)
}

// AppendDecompress appends the decompressed form of data to dst and returns
// the extended slice, reusing dst's spare capacity when it suffices. dst and
// data must not overlap.
func (m Mode) AppendDecompress(dst, data []byte) ([]byte, error) {
	switch m {
	case None:
		return append(dst, data...), nil
	case Snappy:
		dLen, err := snappy.DecodedLen(data)
		if err != nil {
			return nil, err
		}
		off := len(dst)
		dst = slices.Grow(dst, dLen)
		out, err := snappy.Decode(dst[off:off+dLen], data)
		if err != nil {
			return nil, err
		}
		return dst[:off+len(out)], nil
	case Zlib1, Zlib3:
		zr, _ := zlibReaders.Get().(*zlibReader)
		if zr == nil {
			zr = new(zlibReader)
		}
		dst, err := zr.appendDecompress(dst, data)
		zr.src.Reset(nil) // a pooled reader must not pin the caller's blob
		zlibReaders.Put(zr)
		if err != nil {
			return nil, fmt.Errorf("compress: %s: %w", m, err)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("compress: invalid mode %d", int(m))
	}
}

func (m Mode) zlibLevel() int {
	if m == Zlib3 {
		return 3
	}
	return 1
}

// The zlib codecs keep their writers and readers in pools: building a
// deflate compressor costs about a megabyte and an inflater tens of kilobytes,
// which per call would dominate a cache miss and churn the heap. A writer
// keeps its level across Reset, so there is one pool per level (Zlib1,
// Zlib3); a reader learns everything from the stream header.
var (
	zlibWriters [2]sync.Pool // of *zlibWriter
	zlibReaders sync.Pool    // of *zlibReader
)

type zlibWriter struct {
	out appendWriter
	w   *zlib.Writer
}

type zlibReader struct {
	src bytes.Reader
	r   io.ReadCloser // a flate reader, reset per stream
	// probe reads one byte when dst is full: a zero-length Read cannot tell
	// the end of the stream from a stall, and a stack array would escape.
	probe [1]byte
}

// appendDecompress parses the zlib framing itself (RFC 1950: a two-byte
// header, a deflate stream, a big-endian Adler-32 of the output) so that
// no per-stream checksum object is allocated, inflates straight into dst's
// spare capacity, growing it only when it fills up, and verifies the
// checksum over the bytes it appended.
func (z *zlibReader) appendDecompress(dst, data []byte) ([]byte, error) {
	if len(data) < 6 {
		return nil, zlib.ErrHeader
	}
	if cmf, flg := data[0], data[1]; cmf&0x0f != 8 || cmf>>4 > 7 || (uint16(cmf)<<8|uint16(flg))%31 != 0 {
		return nil, zlib.ErrHeader
	} else if flg&0x20 != 0 {
		return nil, zlib.ErrDictionary
	}
	z.src.Reset(data[2 : len(data)-4])
	if z.r == nil {
		z.r = flate.NewReader(&z.src)
	} else if err := z.r.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, err
	}
	off := len(dst)
	for {
		var n int
		var err error
		if len(dst) == cap(dst) {
			n, err = z.r.Read(z.probe[:])
			dst = append(dst, z.probe[:n]...)
		} else {
			n, err = z.r.Read(dst[len(dst):cap(dst)])
			dst = dst[:len(dst)+n]
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if adler32.Checksum(dst[off:]) != binary.BigEndian.Uint32(data[len(data)-4:]) {
		return nil, zlib.ErrChecksum
	}
	return dst, nil
}

// appendWriter adapts an append-to-slice destination to io.Writer for the
// zlib writers.
type appendWriter struct{ buf []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Valid reports whether m is a defined codec.
func (m Mode) Valid() bool { return m >= None && m < numModes }

// SelectCacheMode implements the paper's automatic cache-mode selection
// (§IV-B) with the planning ratios γᵢ of ExpectedRatio; see
// SelectCacheModeBy.
func SelectCacheMode(totalTileBytes int64, capacityBytes int64) Mode {
	return SelectCacheModeBy(totalTileBytes, capacityBytes, Mode.ExpectedRatio)
}

// SelectCacheModeBy picks the cache mode for total tile bytes S and cache
// capacity C: the smallest mode i whose compressed working set S/γᵢ fits C,
// with γᵢ = ratio(i). When nothing fits, tiles stay raw (mode-1) rather than
// taking the paper's zlib-1 fallback: a partial compressed cache pays a
// decompression on every hit inside the compute path, while the misses of a
// partial raw cache are what the sweep-ahead prefetcher hides. A
// non-positive capacity means "no cache" and also returns raw.
//
// ratio is only called for modes the decision needs, zlib-3 (the strongest
// codec) first: if even zlib-3 cannot fit, no mode can, and the cheaper
// codecs are never measured.
func SelectCacheModeBy(totalTileBytes, capacityBytes int64, ratio func(Mode) float64) Mode {
	fits := func(m Mode) bool {
		return float64(totalTileBytes)/ratio(m) <= float64(capacityBytes)
	}
	if capacityBytes <= 0 || totalTileBytes <= capacityBytes || !fits(Zlib3) {
		return None
	}
	for _, m := range []Mode{Snappy, Zlib1} {
		if fits(m) {
			return m
		}
	}
	return Zlib3
}
