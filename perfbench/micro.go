package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	graphh "repro"
	"repro/api"
	"repro/internal/comm"
	"repro/internal/compress"
	"repro/internal/csr"
)

// timePer returns the median, over five batches, of f's time per call.
// Each batch repeats f until it has run for at least 20ms.
func timePer(f func() error) (time.Duration, error) {
	const batches, minBatch = 5, 20 * time.Millisecond
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		if time.Since(t0) >= minBatch {
			break
		}
		reps *= 2
	}
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		per[b] = float64(time.Since(t0)) / float64(reps)
	}
	return time.Duration(median(per)), nil
}

// microLayers times the codec, wire and api micro-layers directly on the
// workload's own data: every tile of p encoded, the cache codec the
// deployment auto-selected, a dense update batch over the median tile's
// target range, and one default-size result page of values.
func microLayers(s *metricSet, p *graphh.Partitioned, cacheMode compress.Mode, values []float64) error {
	enc := make([][]byte, len(p.Tiles))
	var edges int
	for i, t := range p.Tiles {
		enc[i] = t.Encode()
		edges += t.NumEdges()
	}
	var tile csr.Tile
	d, err := timePer(func() error {
		for _, b := range enc {
			if err := csr.DecodeInto(&tile, b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("csr.DecodeInto: %w", err)
	}
	s.add("csr.decode_ns_per_edge", float64(d)/float64(edges), "ns")

	comp := make([][]byte, len(enc))
	for i, b := range enc {
		if comp[i], err = cacheMode.Compress(b); err != nil {
			return err
		}
	}
	var buf []byte
	perTile := func(f func(i int) error) (float64, error) {
		d, err := timePer(func() error {
			for i := range enc {
				if err := f(i); err != nil {
					return err
				}
			}
			return nil
		})
		return ms(d) / float64(len(enc)), err
	}
	c, err := perTile(func(i int) (err error) {
		buf, err = cacheMode.AppendCompress(buf[:0], enc[i])
		return err
	})
	if err != nil {
		return fmt.Errorf("%v AppendCompress: %w", cacheMode, err)
	}
	dc, err := perTile(func(i int) (err error) {
		buf, err = cacheMode.AppendDecompress(buf[:0], comp[i])
		return err
	})
	if err != nil {
		return fmt.Errorf("%v AppendDecompress: %w", cacheMode, err)
	}
	s.add("compress.compress_ms_per_tile", c, "ms")
	s.add("compress.decompress_ms_per_tile", dc, "ms")

	ranges := make([]int, len(p.Tiles))
	for i := range ranges {
		ranges[i] = i
	}
	sort.Slice(ranges, func(a, b int) bool {
		return p.Tiles[ranges[a]].NumTargets() < p.Tiles[ranges[b]].NumTargets()
	})
	mid := p.Tiles[ranges[len(ranges)/2]]
	batch := comm.Batch{TileID: mid.ID, Lo: mid.TargetLo, Hi: mid.TargetHi}
	for v := mid.TargetLo; v < mid.TargetHi; v++ {
		batch.Updates = append(batch.Updates, comm.Update{ID: v, Value: values[v]})
	}
	opts := comm.Options{Codec: compress.Snappy} // the default message codec
	msg, _, err := comm.AppendEncode(nil, &batch, opts)
	if err != nil {
		return err
	}
	e, err := timePer(func() (err error) {
		buf, _, err = comm.AppendEncode(buf[:0], &batch, opts)
		return err
	})
	if err != nil {
		return fmt.Errorf("comm.AppendEncode: %w", err)
	}
	var out comm.Batch
	de, err := timePer(func() error {
		_, err := comm.DecodeInto(&out, msg)
		return err
	})
	if err != nil {
		return fmt.Errorf("comm.DecodeInto: %w", err)
	}
	s.add("comm.encode_us_per_batch", float64(e)/1e3, "us")
	s.add("comm.decode_us_per_batch", float64(de)/1e3, "us")

	page := api.ResultPage{JobID: "j1", Total: len(values), Values: api.Values(values[:min(resultPage, len(values))])}
	pe, err := timePer(func() error {
		_, err := json.Marshal(&page)
		return err
	})
	if err != nil {
		return fmt.Errorf("api page encode: %w", err)
	}
	s.add("api.page_encode_us", float64(pe)/1e3, "us")
	return nil
}

// resultPage is the daemon's default result page size (service.Config).
const resultPage = 4096
