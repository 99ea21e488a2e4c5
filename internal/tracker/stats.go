package tracker

import (
	"time"

	"repro/internal/obs"
)

// Stats is a point-in-time snapshot of the tracker's pipeline counters.
type Stats struct {
	// Rescans counts every Rescan call, including no-change polls.
	Rescans uint64 `json:"rescans"`
	// Reloads counts rescans that installed a new database generation.
	Reloads uint64 `json:"reloads"`
	// EventsEmitted counts classified events appended to the log.
	EventsEmitted uint64 `json:"events_emitted"`
	// LastReload is the duration of the most recent reload (zero before
	// the first).
	LastReload time.Duration `json:"last_reload_ns"`
	// ReloadTotal is the cumulative time spent in reloads.
	ReloadTotal time.Duration `json:"reload_total_ns"`
	// DirsDigested counts version directories read to hash the tree for
	// sidecar refreshes: the whole tree once, then only changed ones.
	DirsDigested int64 `json:"dirs_digested"`
}

// Stats reads the pipeline counters without locking the tracker.
func (t *Tracker) Stats() Stats {
	return Stats{
		Rescans:       t.statRescans.Load(),
		Reloads:       t.statReloads.Load(),
		EventsEmitted: t.statEvents.Load(),
		LastReload:    time.Duration(t.statLastReloadNS.Load()),
		ReloadTotal:   time.Duration(t.statReloadTotalNS.Load()),
		DirsDigested:  t.statDigested.Load(),
	}
}

// StatsFamilies renders the tracker's counters as Prometheus families
// under the given namespace prefix ("trustd_" in the serving layer). This
// is the service package's statsProvider capability: attaching a tracker
// as the event feed automatically adds these families to the scrape.
func (t *Tracker) StatsFamilies(prefix string) []obs.MetricFamily {
	st := t.Stats()
	fams := []obs.MetricFamily{
		obs.CounterFamily(prefix+"tracker_rescans_total",
			"Source rescans, including polls that found no changes.", float64(st.Rescans)),
		obs.CounterFamily(prefix+"tracker_reloads_total",
			"Rescans that ingested changes and installed a new database.", float64(st.Reloads)),
		obs.CounterFamily(prefix+"tracker_events_emitted_total",
			"Classified change events appended to the event log.", float64(st.EventsEmitted)),
		obs.GaugeFamily(prefix+"tracker_last_reload_seconds",
			"Duration of the most recent reload.", st.LastReload.Seconds()),
		obs.CounterFamily(prefix+"tracker_reload_seconds_total",
			"Cumulative time spent reloading the database.", st.ReloadTotal.Seconds()),
		obs.CounterFamily(prefix+"tracker_dirs_digested_total",
			"Snapshot directories read to hash the tree for sidecar refreshes.", float64(st.DirsDigested)),
	}
	if src, ok := t.cfg.Source.(interface{ SourceStats() SourceStats }); ok {
		ss := src.SourceStats()
		inotify := 0.0
		if ss.Inotify {
			inotify = 1
		}
		fams = append(fams,
			obs.GaugeFamily(prefix+"tracker_inotify",
				"1 while an inotify dirty set drives scans, 0 while every scan stat-walks the tree.", inotify),
			obs.GaugeFamily(prefix+"tracker_inotify_watches",
				"Directories carrying an inotify watch.", float64(ss.Watches)),
			obs.CounterFamily(prefix+"tracker_inotify_overflows_total",
				"Inotify queue overflows, each answered with one full walk.", float64(ss.Overflows)),
			obs.CounterFamily(prefix+"tracker_dirs_statted_total",
				"Snapshot directories stat-walked by scans.", float64(ss.DirsStatted)),
		)
	}
	return fams
}
