package main

import (
	"math"
	"strings"
)

// reconMethods is the recon workload's method mix; natural runs on an
// ROI box, the rest on the full grid.
var reconMethods = []string{"fcnn", "fcnn-f16", "linear", "shepard", "nearest", "natural"}

// layerMetricDefs are reported by every workload with --trace 1. Each
// is derived from the spans named in layerMetrics.
var layerMetricDefs = func() []metricDef {
	defs := []metricDef{
		{"core.pretrain_ms", "ms"},
		{"core.finetune_ms", "ms"},
		{"core.save_ms", "ms"},
		{"core.model_bytes", "B"},
		{"sampling.sample_ms", "ms"},
		{"sampling.points", "count"},
		{"codec.encode_ms", "ms"},
		{"codec.bytes", "B"},
		{"codec.decode_ms", "ms"},
		{"recon.plan_ms", "ms"},
		{"recon.index_ms", "ms"},
		{"recon.nearest_table_ms", "ms"},
	}
	for _, m := range reconMethods {
		defs = append(defs, metricDef{"recon." + m + "_ns_per_vox", "ns"})
	}
	return append(defs,
		metricDef{"kdtree.knn_ns_per_query", "ns"},
		metricDef{"features.batch_ns_per_row", "ns"},
		metricDef{"nn.predict_ns_per_row", "ns"},
		metricDef{"nn.predict_f16_ns_per_row", "ns"},
		metricDef{"nn.flops_per_row", "count"},
		metricDef{"nn.bytes_per_row", "B"},
		metricDef{"nn.f16_bytes_per_row", "B"},
		metricDef{"server.points_ms", "ms"},
		metricDef{"server.box_ms", "ms"},
		metricDef{"server.full_ms", "ms"},
		metricDef{"server.upload_ms", "ms"},
		metricDef{"server.progressive_first_ms", "ms"},
		metricDef{"server.engine_ms", "ms"},
		metricDef{"server.overhead_ms", "ms"},
		metricDef{"server.plan_hit_frac", "frac"},
		metricDef{"server.response_kb", "KiB"},
		metricDef{"loadgen.late_ms", "ms"},
		metricDef{"cluster.fanout_ms", "ms"},
		metricDef{"cluster.proxy_ms", "ms"},
		metricDef{"cluster.shards_per_req", "count"},
		metricDef{"cluster.hedges", "count"},
		metricDef{"cluster.overhead_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// spanSet indexes spans by name for metric derivation.
type spanSet map[string][]spanRec

func indexSpans(spans []spanRec) spanSet {
	s := spanSet{}
	for _, sp := range spans {
		s[sp.Name] = append(s[sp.Name], sp)
	}
	return s
}

// durMS returns the durations of the named spans in milliseconds.
func (s spanSet) durMS(names ...string) []float64 {
	var out []float64
	for _, n := range names {
		for _, sp := range s[n] {
			out = append(out, ms(sp.End-sp.Start))
		}
	}
	return out
}

// attr returns attribute key of the named spans that carry it.
func (s spanSet) attr(key string, names ...string) []float64 {
	var out []float64
	for _, n := range names {
		for _, sp := range s[n] {
			if v, ok := sp.Attrs[key]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// nsPer returns total span nanoseconds per unit of attribute key.
func (s spanSet) nsPer(name, key string) float64 {
	var ns, units float64
	for _, sp := range s[name] {
		ns += float64(sp.End - sp.Start)
		units += sp.Attrs[key]
	}
	if units == 0 {
		return math.NaN()
	}
	return ns / units
}

// layerMetrics derives every per-layer metric the spans support; a
// metric whose spans are absent is left out.
func layerMetrics(spans []spanRec) map[string]metricOut {
	s := indexSpans(spans)
	out := map[string]metricOut{}
	put := func(name, unit string, v float64) {
		if !math.IsNaN(v) {
			out[name] = metricOut{Value: v, Unit: unit}
		}
	}
	put("core.pretrain_ms", "ms", median(s.durMS("core.pretrain")))
	put("core.finetune_ms", "ms", median(s.durMS("core.finetune")))
	put("core.save_ms", "ms", median(s.durMS("core.save")))
	put("core.model_bytes", "B", median(s.attr("bytes", "core.save")))
	put("sampling.sample_ms", "ms", median(s.durMS("sampling.sample")))
	put("sampling.points", "count", median(s.attr("points", "sampling.sample")))
	put("codec.encode_ms", "ms", median(s.durMS("codec.encode")))
	put("codec.bytes", "B", median(s.attr("bytes", "codec.encode")))
	put("codec.decode_ms", "ms", median(s.durMS("codec.decode")))
	put("recon.plan_ms", "ms", median(s.durMS("recon.plan")))
	put("recon.index_ms", "ms", median(s.durMS("recon.index")))
	put("recon.nearest_table_ms", "ms", median(s.durMS("recon.nearest_table")))
	for _, m := range reconMethods {
		put("recon."+m+"_ns_per_vox", "ns", s.nsPer("recon."+m, "vox"))
	}
	put("kdtree.knn_ns_per_query", "ns", s.nsPer("kdtree.knn", "rows"))
	put("features.batch_ns_per_row", "ns", s.nsPer("features.batch", "rows"))
	put("nn.predict_ns_per_row", "ns", s.nsPer("nn.predict", "rows"))
	put("nn.predict_f16_ns_per_row", "ns", s.nsPer("nn.predict_f16", "rows"))
	put("nn.flops_per_row", "count", median(s.attr("flops_per_row", "nn.predict")))
	put("nn.bytes_per_row", "B", median(s.attr("bytes_per_row", "nn.predict")))
	put("nn.f16_bytes_per_row", "B", median(s.attr("bytes_per_row", "nn.predict_f16")))

	routes := []string{"server.points", "server.box", "server.full"}
	put("server.points_ms", "ms", median(s.durMS("server.points")))
	put("server.box_ms", "ms", median(s.durMS("server.box")))
	put("server.full_ms", "ms", median(s.durMS("server.full")))
	put("server.upload_ms", "ms", median(s.durMS("server.upload")))
	put("server.progressive_first_ms", "ms", median(s.attr("first_ms", "server.progressive")))
	put("server.engine_ms", "ms", median(s.attr("engine_ms", routes...)))
	var over []float64
	for _, r := range routes {
		for _, sp := range s[r] {
			over = append(over, ms(sp.End-sp.Start)-sp.Attrs["engine_ms"])
		}
	}
	put("server.overhead_ms", "ms", median(over))
	put("server.plan_hit_frac", "frac", mean(s.attr("cached", routes...)))
	put("server.response_kb", "KiB", mean(s.attr("bytes", append(routes, "server.progressive")...))/1024)

	var late []float64
	for name := range s {
		if strings.HasPrefix(name, "server.") || strings.HasPrefix(name, "cluster.") {
			late = append(late, s.attr("late_ms", name)...)
		}
	}
	put("loadgen.late_ms", "ms", median(late))
	put("cluster.fanout_ms", "ms", median(s.durMS("cluster.fanout")))
	put("cluster.proxy_ms", "ms", median(s.durMS("cluster.proxy")))
	put("cluster.shards_per_req", "count", mean(s.attr("shards", "cluster.fanout")))
	put("cluster.hedges", "count", median(s.attr("hedges", "cluster.status")))
	put("cluster.overhead_ms", "ms", median(s.attr("overhead_ms", "cluster.replay")))
	return out
}
