// Package rfidgen reimplements RFIDGen, the paper's synthetic supply-chain
// workload generator (§6.1): a retailer whose goods flow through 5
// distribution centers → 25 warehouses → 1000 retail stores, each site
// with 100 reader-equipped locations (13 000 GLNs total). Shipments are
// pallets of 20–80 cases; every shipment is read 10 times per site (30
// reads total), first read placed randomly in a 5-year window and
// consecutive reads 1–36 hours apart. Cases travel with their pallet and
// are read by the same reader within the pallet/case jitter bound.
//
// Anomalies are injected by reversing the actions of the five cleansing
// rules of §4.3 (duplicate, reader, replacing, cycle, missing), evenly
// split, against disjoint base reads so each anomaly is independently
// correctable. The generator retains the clean ground truth so tests can
// verify that applying all five rules to the dirty data restores it.
package rfidgen

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Topology constants from §6.1 of the paper.
const (
	NumDCs         = 5
	NumWarehouses  = 25
	NumStores      = 1000
	LocsPerSite    = 100
	ReadsPerSite   = 10
	NumProducts    = 1000
	NumMakers      = 50
	NumSteps       = 100
	NumStepTypes   = 10
	MinCasesPerPlt = 20
	MaxCasesPerPlt = 80
	WindowYears    = 5
	MinLatency     = time.Hour
	MaxLatency     = 36 * time.Hour
	// CaseJitter bounds how far a case read trails its pallet read. The
	// paper says "within 10 minutes"; we use the missing-rule threshold
	// (5 minutes) so Example 5's r1 recognizes every co-travelling pair —
	// with 10-minute jitter the paper's own 5-minute rule would misfire.
	CaseJitter = 5 * time.Minute
)

// Rule thresholds used by the §6 experiments: t1, t2, t3 = 5, 10, 20 min.
const (
	T1Duplicate = 5 * time.Minute
	T2Reader    = 10 * time.Minute
	T3Replacing = 20 * time.Minute
)

// AnomalyKind enumerates the five injected anomaly types.
type AnomalyKind int

// Anomaly kinds, in the rule order of Table 1.
const (
	AnomalyReader AnomalyKind = iota
	AnomalyDuplicate
	AnomalyReplacing
	AnomalyCycle
	AnomalyMissing
	numAnomalyKinds
)

func (k AnomalyKind) String() string {
	switch k {
	case AnomalyReader:
		return "reader"
	case AnomalyDuplicate:
		return "duplicate"
	case AnomalyReplacing:
		return "replacing"
	case AnomalyCycle:
		return "cycle"
	case AnomalyMissing:
		return "missing"
	}
	return "?"
}

// Config parameterizes a generation run.
type Config struct {
	// Scale is the paper's scale factor s: the number of pallet EPCs.
	// caseR gets ≈ s*50*30 rows.
	Scale int
	// AnomalyPct is the dirty percentage D (0–100): anomalies injected as
	// a fraction of normal case reads, split evenly across the five kinds.
	AnomalyPct int
	// Seed fixes the random stream.
	Seed int64
	// Start is the beginning of the read window; zero means 2021-01-01.
	Start time.Time
}

// Read is one RFID read event.
type Read struct {
	EPC     string
	RTime   time.Time
	BizLoc  string // location GLN
	Reader  string
	BizStep string
}

// Location is one locs-table row.
type Location struct {
	GLN     string
	Site    string
	LocDesc string
}

// Parent associates a case EPC with its pallet EPC.
type Parent struct {
	ChildEPC  string
	ParentEPC string
}

// EPCInfo is item-level reference data for one case.
type EPCInfo struct {
	EPC         string
	Product     int
	Lot         int
	Manufacture time.Time
	Expiry      time.Time
}

// Product is product reference data.
type Product struct {
	ID           int
	Manufacturer int
	Name         string
}

// Step is one business-step row.
type Step struct {
	BizStep string
	Type    string
}

// Dataset is a full generated database, dirty case reads plus the clean
// ground truth.
type Dataset struct {
	Config Config

	CaseR    []Read // with anomalies injected
	Clean    []Read // ground truth (no anomalies)
	PalletR  []Read
	Parents  []Parent
	Infos    []EPCInfo
	Products []Product
	Locs     []Location
	Steps    []Step

	// Special identifiers the injected anomalies (and hence the cleansing
	// rules) refer to.
	ReaderX string // the forklift reader of the reader rule
	Loc1    string // replacing rule: correct location
	Loc2    string // replacing rule: cross-read location
	LocA    string // replacing rule: next location in the business flow
	// Injected counts per kind.
	Injected map[AnomalyKind]int
}

// siteInfo is one site's identity and reader locations.
type siteInfo struct {
	name string
	glns []string
}

// Generate builds a dataset.
func Generate(cfg Config) *Dataset {
	if cfg.Scale <= 0 {
		cfg.Scale = 10
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	cfg.Start = cfg.Start.Truncate(time.Microsecond)
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{Config: cfg, Injected: map[AnomalyKind]int{}}

	// ---- reference data ----
	dcs := make([]siteInfo, NumDCs)
	whs := make([]siteInfo, NumWarehouses)
	stores := make([]siteInfo, NumStores)
	glnSeq := 0
	mkSite := func(name string) siteInfo {
		s := siteInfo{name: name}
		for i := 0; i < LocsPerSite; i++ {
			gln := fmt.Sprintf("%013d", glnSeq)
			glnSeq++
			s.glns = append(s.glns, gln)
			d.Locs = append(d.Locs, Location{GLN: gln, Site: name, LocDesc: fmt.Sprintf("%s loc %d", name, i)})
		}
		return s
	}
	for i := range dcs {
		dcs[i] = mkSite(fmt.Sprintf("distribution center %d", i))
	}
	for i := range whs {
		whs[i] = mkSite(fmt.Sprintf("warehouse %d", i))
	}
	for i := range stores {
		stores[i] = mkSite(fmt.Sprintf("store %d", i))
	}
	// Reserved identifiers for injected anomalies: never used by normal
	// reads, so injections do not collide with organic data.
	d.ReaderX = "readerX"
	d.Loc1 = "loc1-special"
	d.Loc2 = "loc2-special"
	d.LocA = "locA-special"
	for _, g := range []struct{ gln, desc string }{
		{d.Loc1, "forklift destination"}, {d.Loc2, "cross-read bay"},
		{d.LocA, "flow next hop"}, {"stray-special", "stray cross-read bay"},
	} {
		d.Locs = append(d.Locs, Location{GLN: g.gln, Site: "warehouse 0", LocDesc: g.desc})
	}

	for i := 0; i < NumSteps; i++ {
		d.Steps = append(d.Steps, Step{
			BizStep: fmt.Sprintf("step-%03d", i),
			Type:    fmt.Sprintf("type-%d", i%NumStepTypes),
		})
	}
	for i := 0; i < NumProducts; i++ {
		d.Products = append(d.Products, Product{ID: i, Manufacturer: rng.Intn(NumMakers), Name: fmt.Sprintf("product-%04d", i)})
	}

	// ---- normal reads ----
	window := time.Duration(WindowYears) * 365 * 24 * time.Hour
	caseSeq := 0
	for p := 0; p < cfg.Scale; p++ {
		palletEPC := fmt.Sprintf("urn:epc:id:sscc:0614141.1%09d", p)
		store := stores[rng.Intn(NumStores)]
		wh := whs[rng.Intn(NumWarehouses)]
		dc := dcs[rng.Intn(NumDCs)]
		path := []siteInfo{dc, wh, store}

		nCases := MinCasesPerPlt + rng.Intn(MaxCasesPerPlt-MinCasesPerPlt+1)
		caseEPCs := make([]string, nCases)
		for c := range caseEPCs {
			epc := fmt.Sprintf("urn:epc:id:sgtin:0614141.%06d.%09d", caseSeq%1000, caseSeq)
			caseSeq++
			caseEPCs[c] = epc
			d.Parents = append(d.Parents, Parent{ChildEPC: epc, ParentEPC: palletEPC})
			mfg := cfg.Start.Add(-time.Duration(rng.Intn(365*24)) * time.Hour)
			d.Infos = append(d.Infos, EPCInfo{
				EPC: epc, Product: rng.Intn(NumProducts), Lot: rng.Intn(10000),
				Manufacture: mfg, Expiry: mfg.Add(2 * 365 * 24 * time.Hour),
			})
		}

		t := cfg.Start.Add(usecDur(rng, window))
		// The location sequence is kept free of natural [X Y X] cycles and
		// natural duplicates: loc_k is distinct from the previous three
		// locations, so the only rule-triggering patterns in the data are
		// the ones the injectors place deliberately — matching the paper's
		// method of creating anomalies purely "by reversing the action of
		// the cleansing rules". Distance three (not two) keeps that
		// property even after a missing-read deletion shortens the
		// sequence by one position.
		loc1, loc2, loc3 := "", "", ""
		for _, site := range path {
			for r := 0; r < ReadsPerSite; r++ {
				gln := site.glns[rng.Intn(len(site.glns))]
				for gln == loc1 || gln == loc2 || gln == loc3 {
					gln = site.glns[rng.Intn(len(site.glns))]
				}
				loc3, loc2, loc1 = loc2, loc1, gln
				reader := "rdr-" + gln
				step := d.Steps[rng.Intn(NumSteps)].BizStep
				d.PalletR = append(d.PalletR, Read{EPC: palletEPC, RTime: t, BizLoc: gln, Reader: reader, BizStep: step})
				for _, cepc := range caseEPCs {
					ct := t.Add(usecDur(rng, CaseJitter))
					d.Clean = append(d.Clean, Read{EPC: cepc, RTime: ct, BizLoc: gln, Reader: reader, BizStep: step})
				}
				t = t.Add(MinLatency + usecDur(rng, MaxLatency-MinLatency))
			}
		}
	}

	d.injectAnomalies(rng)

	// Load order partially correlated with time (§6.1): order by day, then
	// randomly within each day.
	sortPartial := func(reads []Read, rng *rand.Rand) {
		jitter := make([]int64, len(reads))
		for i := range jitter {
			jitter[i] = rng.Int63()
		}
		// A day is a whole number of seconds since the zero time, so its
		// Unix seconds order days exactly as Before does.
		day := make([]int64, len(reads))
		idx := make([]int, len(reads))
		for i := range idx {
			idx[i] = i
			day[i] = reads[i].RTime.Truncate(24 * time.Hour).Unix()
		}
		sort.Slice(idx, func(a, b int) bool {
			if da, db := day[idx[a]], day[idx[b]]; da != db {
				return da < db
			}
			return jitter[idx[a]] < jitter[idx[b]]
		})
		out := make([]Read, len(reads))
		for i, id := range idx {
			out[i] = reads[id]
		}
		copy(reads, out)
	}
	sortPartial(d.CaseR, rng)
	sortPartial(d.PalletR, rng)
	return d
}

// injectAnomalies perturbs the clean reads into d.CaseR. Base reads are
// sampled without replacement so injected anomalies never interact.
func (d *Dataset) injectAnomalies(rng *rand.Rand) {
	clean := d.Clean
	dirty := make([]Read, len(clean))
	copy(dirty, clean)

	total := len(clean) * d.Config.AnomalyPct / 100
	perKind := total / int(numAnomalyKinds)

	// Index of each EPC's reads in time order, over the clean data.
	byEPC := map[string][]int{}
	for i, r := range clean {
		byEPC[r.EPC] = append(byEPC[r.EPC], i)
	}
	for _, idxs := range byEPC {
		sort.Slice(idxs, func(a, b int) bool { return clean[idxs[a]].RTime.Before(clean[idxs[b]].RTime) })
	}
	// Pallet read lookup: (epc, position) -> matching pallet read time.
	palletOf := map[string]string{}
	for _, p := range d.Parents {
		palletOf[p.ChildEPC] = p.ParentEPC
	}
	palletReads := map[string][]Read{}
	for _, r := range d.PalletR {
		palletReads[r.EPC] = append(palletReads[r.EPC], r)
	}
	for _, rs := range palletReads {
		sort.Slice(rs, func(a, b int) bool { return rs[a].RTime.Before(rs[b].RTime) })
	}

	used := map[int]bool{}    // base read indices already consumed
	locked := map[int]bool{}  // rows whose dirty side depends on their location
	deleted := map[int]bool{} // dirty rows to drop (missing anomalies)
	var extra []Read          // dirty rows to add
	var extraClean []Read     // legitimate rows added to both worlds

	// pick samples an unused base read whose EPC-sequence position
	// satisfies ok.
	pick := func(ok func(epc string, pos, seqLen int) bool) int {
		for try := 0; try < 1000; try++ {
			i := rng.Intn(len(clean))
			if used[i] {
				continue
			}
			seq := byEPC[clean[i].EPC]
			pos := 0
			for p, id := range seq {
				if id == i {
					pos = p
					break
				}
			}
			if ok(clean[i].EPC, pos, len(seq)) {
				used[i] = true
				return i
			}
		}
		return -1
	}
	anyPos := func(string, int, int) bool { return true }

	// Replacing anomalies run first: they operate at whole-pallet-visit
	// granularity (the visit truly happened at loc1), so they need rows no
	// other injector has locked yet. Their capacity is bounded by the
	// number of well-separated visits; any shortfall is redistributed to
	// the read-granular kinds below so the total anomaly volume stays at
	// the configured percentage.
	// Replacing anomalies: the whole pallet visit really happened at
	// loc1 — the pallet read and every sibling case read move there in
	// both worlds — but one case was cross-read at loc2 (dirty only). The
	// business flow guarantees that case a locA read within t3 (both
	// worlds), which is what lets the rule prove the cross-read. Moving
	// the full visit keeps pallet/case co-location intact so the missing
	// rule never falsely compensates.
	childrenOf := map[string][]string{}
	for _, p := range d.Parents {
		childrenOf[p.ParentEPC] = append(childrenOf[p.ParentEPC], p.ChildEPC)
	}
	cleanRowAt := func(epc, loc string, near time.Time) int {
		for _, id := range byEPC[epc] {
			if clean[id].BizLoc == loc && absDur(clean[id].RTime.Sub(near)) < CaseJitter {
				return id
			}
		}
		return -1
	}
	// Pallet visits already rewritten, to keep loc1 visits ≥3 apart within
	// a pallet (a case sequence with loc1 at distance ≤2 would look like a
	// cycle anomaly).
	visitTaken := map[string][]int{}
	palletIdx := map[string][]int{} // pallet epc -> indices into d.PalletR, time order
	for i := range d.PalletR {
		palletIdx[d.PalletR[i].EPC] = append(palletIdx[d.PalletR[i].EPC], i)
	}
	for _, ids := range palletIdx {
		sort.Slice(ids, func(a, b int) bool { return d.PalletR[ids[a]].RTime.Before(d.PalletR[ids[b]].RTime) })
	}
	for n := 0; n < perKind; n++ {
		committed := false
		for try := 0; try < 200 && !committed; try++ {
			i := rng.Intn(len(clean))
			if used[i] {
				continue
			}
			pepc := palletOf[clean[i].EPC]
			// Find the pallet read of this visit and its visit index.
			visit := -1
			for v, pid := range palletIdx[pepc] {
				pr := &d.PalletR[pid]
				if pr.BizLoc == clean[i].BizLoc && absDur(pr.RTime.Sub(clean[i].RTime)) < CaseJitter {
					visit = v
					break
				}
			}
			if visit < 0 {
				continue
			}
			tooClose := false
			for _, v := range visitTaken[pepc] {
				if abs(v-visit) < 3 {
					tooClose = true
				}
			}
			if tooClose {
				continue
			}
			pid := palletIdx[pepc][visit]
			oldLoc, when := d.PalletR[pid].BizLoc, d.PalletR[pid].RTime
			// All sibling rows of the visit must be untouched.
			sibRows := make([]int, 0, len(childrenOf[pepc]))
			ok := true
			for _, child := range childrenOf[pepc] {
				id := cleanRowAt(child, oldLoc, when)
				// Reserved-neighbour rows may move with the visit; rows
				// whose injected artifacts depend on their location may not.
				if id < 0 || locked[id] || deleted[id] {
					ok = false
					break
				}
				sibRows = append(sibRows, id)
			}
			if !ok {
				continue
			}
			// Commit: move the visit to loc1 in both worlds.
			d.PalletR[pid].BizLoc = d.Loc1
			d.PalletR[pid].Reader = "rdr-" + d.Loc1
			for _, id := range sibRows {
				used[id] = true
				locked[id] = true
				clean[id].BizLoc = d.Loc1
				clean[id].Reader = "rdr-" + d.Loc1
				dirty[id].BizLoc = d.Loc1
				dirty[id].Reader = "rdr-" + d.Loc1
			}
			visitTaken[pepc] = append(visitTaken[pepc], visit)
			// The chosen case was cross-read at loc2 (dirty only)…
			dirty[i].BizLoc = d.Loc2
			// …and the flow guarantees its locA read shortly after (both).
			next := clean[i]
			next.BizLoc = d.LocA
			next.RTime = clean[i].RTime.Add(offsetWithin(rng, T3Replacing))
			next.Reader = "rdr-" + d.LocA
			extraClean = append(extraClean, next)
			extra = append(extra, next)
			d.Injected[AnomalyReplacing]++
			committed = true
		}
		if !committed {
			break
		}
	}

	shortfall := perKind - d.Injected[AnomalyReplacing]
	perKind += shortfall / 4

	// Reader anomalies: re-reader a base read as readerX (both clean
	// and dirty) and add a bogus read shortly before it (dirty only).
	for n := 0; n < perKind; n++ {
		i := pick(anyPos)
		if i < 0 {
			break
		}
		locked[i] = true // the bogus read depends on this row staying readerX
		clean[i].Reader = d.ReaderX
		dirty[i].Reader = d.ReaderX
		bogus := dirty[i]
		bogus.RTime = dirty[i].RTime.Add(-offsetWithin(rng, T2Reader))
		bogus.BizLoc = "stray-special" // somewhere it never really was
		bogus.Reader = "rdr-stray"
		extra = append(extra, bogus)
		d.Injected[AnomalyReader]++
	}

	// Duplicate anomalies: re-read of the same location within t1.
	for n := 0; n < perKind; n++ {
		i := pick(anyPos)
		if i < 0 {
			break
		}
		locked[i] = true // the dup copy matches this row's location
		dup := dirty[i]
		dup.RTime = dup.RTime.Add(offsetWithin(rng, T1Duplicate))
		dup.Reader = "rdr-dup"
		extra = append(extra, dup)
		d.Injected[AnomalyDuplicate]++
	}

	// Cycle anomalies: between consecutive reads X@ti, Y@tj insert
	// Y@a, X@b (ti < a < b < tj) so the dirty location pattern is
	// [X Y X Y]; the cycle rule keeps the first X and last Y.
	for n := 0; n < perKind; n++ {
		i := pick(func(epc string, pos, seqLen int) bool {
			if pos+1 >= seqLen {
				return false
			}
			seq := byEPC[epc]
			a, b := seq[pos], seq[pos+1]
			if used[a] || used[b] || deleted[b] || clean[a].BizLoc == clean[b].BizLoc {
				return false
			}
			// Keep injected reads well clear of the duplicate threshold.
			return clean[b].RTime.Sub(clean[a].RTime) >= 40*time.Minute
		})
		if i < 0 {
			break
		}
		seq := byEPC[clean[i].EPC]
		pos := 0
		for p, id := range seq {
			if id == i {
				pos = p
			}
		}
		j := seq[pos+1]
		// The inserted rows' cleansing depends on this neighbourhood's
		// locations and presence; reserve it against later injections.
		used[j] = true
		if pos > 0 {
			used[seq[pos-1]] = true
		}
		gap := clean[j].RTime.Sub(clean[i].RTime)
		y2 := dirty[i]
		y2.BizLoc = clean[j].BizLoc
		y2.RTime = clean[i].RTime.Add(gap / 3)
		x2 := dirty[i]
		x2.RTime = clean[i].RTime.Add(2 * gap / 3)
		extra = append(extra, y2, x2)
		d.Injected[AnomalyCycle]++
	}

	// Missing anomalies: drop a case read that has a co-located pallet
	// read; align the clean row exactly with the pallet read so the
	// rule's compensation (the pallet read under the case EPC)
	// reconstructs it bit-for-bit. Never the last site visit — the rule
	// only compensates when case and pallet are seen together later.
	deletedPos := map[string][]int{} // per-epc deleted sequence positions
	for n := 0; n < perKind; n++ {
		i := pick(func(epc string, pos, seqLen int) bool {
			if pos >= seqLen-ReadsPerSite {
				return false
			}
			// Deletions shorten distances downstream; keep them at least
			// four positions from each other and three from replaced
			// (loc1) visits so no unconstrained pair ever lands at
			// cycle-pattern distance.
			for _, dp := range deletedPos[epc] {
				if abs(dp-pos) < 4 {
					return false
				}
			}
			// Deleting seq[pos] creates the new close pairs
			// (pos-1,pos+1), (pos-1,pos+2), (pos-2,pos+1). None may share
			// a location, or the cycle rule would fire on untouched reads.
			seq := byEPC[epc]
			locAt := func(p int) string {
				if p < 0 || p >= seqLen {
					return ""
				}
				return clean[seq[p]].BizLoc
			}
			a2, a1 := locAt(pos-2), locAt(pos-1)
			b1, b2 := locAt(pos+1), locAt(pos+2)
			if (a1 != "" && (a1 == b1 || a1 == b2)) || (a2 != "" && a2 == b1) {
				return false
			}
			return true
		})
		if i < 0 {
			break
		}
		pepc := palletOf[clean[i].EPC]
		var pr *Read
		for k := range palletReads[pepc] {
			r := &palletReads[pepc][k]
			if r.BizLoc == clean[i].BizLoc && absDur(r.RTime.Sub(clean[i].RTime)) < CaseJitter {
				pr = r
				break
			}
		}
		if pr == nil {
			continue
		}
		clean[i].RTime = pr.RTime
		clean[i].Reader = pr.Reader
		clean[i].BizStep = pr.BizStep
		deleted[i] = true
		seq := byEPC[clean[i].EPC]
		for p, id := range seq {
			if id == i {
				deletedPos[clean[i].EPC] = append(deletedPos[clean[i].EPC], p)
			}
		}
		d.Injected[AnomalyMissing]++
	}

	out := make([]Read, 0, len(dirty)+len(extra))
	for i, r := range dirty {
		if !deleted[i] {
			out = append(out, r)
		}
	}
	out = append(out, extra...)
	d.CaseR = out
	d.Clean = append(clean, extraClean...)
}

// usecDur draws a microsecond-aligned duration in [0, max). All generated
// timestamps stay on microsecond boundaries — the engine's TIME resolution.
func usecDur(rng *rand.Rand, max time.Duration) time.Duration {
	return time.Duration(rng.Int63n(int64(max/time.Microsecond))) * time.Microsecond
}

// offsetWithin draws a microsecond-aligned duration strictly inside
// (0, bound), matching the open interval the rules' strict "< bound"
// comparisons accept.
func offsetWithin(rng *rand.Rand, bound time.Duration) time.Duration {
	return time.Duration(1+rng.Int63n(int64(bound/time.Microsecond)-1)) * time.Microsecond
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
