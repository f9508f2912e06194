package main

// endToEndUnits and perLayerUnits are the metrics the benchmark prints, by
// name, with their units; BENCHMARK.json at the repository root lists the
// same names (TestMetricNamesMatchBenchmarkJSON).
var endToEndUnits = map[string]string{
	"wall_s":         "s",
	"setup_s":        "s",
	"run_s":          "s",
	"pkt_hops_per_s": "1/s",
	"alloc_mb":       "MB",
	"live_heap_mb":   "MB",
}

var perLayerUnits = map[string]string{
	"simtime.events":           "count",
	"simtime.self_s":           "s",
	"netsim.transmit_s":        "s",
	"netsim.deliver_self_s":    "s",
	"netsim.drops":             "count",
	"node.forward_s":           "s",
	"node.forwarded":           "count",
	"tcp.rx_s":                 "s",
	"udp.rx_s":                 "s",
	"cm.charge_s":              "s",
	"cm.charge_calls":          "count",
	"cm.grant_s":               "s",
	"cm.restarts":              "count",
	"libcm.notify_s":           "s",
	"libcm.dropped":            "count",
	"app.s":                    "s",
	"routeproto.update_s":      "s",
	"routeproto.messages":      "count",
	"dynamics.event_s":         "s",
	"scenario.build_s":         "s",
	"scenario.start_s":         "s",
	"scenario.finish_s":        "s",
	"scenario.shards":          "count",
	"scenario.shard_windows":   "count",
	"scenario.shard_busy_s":    "s",
	"scenario.shard_barrier_s": "s",
	"sweep.idle_s":             "s",
	"sweep.parallel_eff":       "ratio",
	"faults.check_s":           "s",
	"gc.cycles":                "count",
	"gc.pause_s":               "s",
	"trace.run_s":              "s",
	"trace.overhead":           "ratio",
	"unattributed_s":           "s",
}
