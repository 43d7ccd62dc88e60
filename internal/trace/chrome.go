package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// ChromeWriter streams the event stream as Chrome trace-event JSON
// (loadable in chrome://tracing and Perfetto). The layout:
//
//   - one "process" (pid) per SM, named "SM<i>";
//   - inside each SM, one "thread" (tid) per CTA slot: a CTA occupies the
//     lowest free slot while active, rendered as a B/E duration slice named
//     "CTA <id>", so context switches appear as interleaved slices;
//   - instant events on the slot for full stalls and register transfers;
//   - a per-SM counter track "ctas" (active/pending residency) and a
//     global "DRAM" process with a channel-backlog counter.
//
// Events are streamed as they arrive (constant memory); Close finishes the
// JSON document, so one writer can follow a multi-kernel stream (one
// RunStart/RunEnd pair per segment) to its end. Timestamps map one
// simulated cycle to one microsecond.
type ChromeWriter struct {
	w     *bufio.Writer
	first bool
	err   error

	sms  map[int]*smTrack
	meta map[string]bool // emitted metadata records

	// counter decimation: at most one DRAM sample per CounterEvery cycles.
	CounterEvery int64
	lastDRAMTs   int64
	closed       bool
}

type smTrack struct {
	slots   map[int]int // ctaID -> slot tid while active
	free    []int
	nextTid int
	active  int
	pending int
}

// NewChromeWriter wraps w; the caller owns the underlying writer's
// lifetime and must call Close.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	cw := &ChromeWriter{
		w:            bufio.NewWriterSize(w, 1<<16),
		first:        true,
		sms:          make(map[int]*smTrack),
		meta:         make(map[string]bool),
		CounterEvery: 50,
		lastDRAMTs:   -1,
	}
	cw.raw(`{"displayTimeUnit":"ns","traceEvents":[`)
	return cw
}

// Err returns the first write error, if any.
func (c *ChromeWriter) Err() error { return c.err }

// Close terminates the JSON document and flushes. Safe to call twice.
func (c *ChromeWriter) Close() error {
	if !c.closed {
		c.closed = true
		if c.err == nil {
			if _, err := c.w.WriteString("\n]}\n"); err != nil {
				c.err = err
			}
		}
	}
	if err := c.w.Flush(); c.err == nil {
		c.err = err
	}
	return c.err
}

func (c *ChromeWriter) raw(s string) {
	if c.err != nil || c.closed {
		return
	}
	if _, err := c.w.WriteString(s); err != nil {
		c.err = err
	}
}

// event writes one record; body is the pre-rendered JSON fields after the
// common ones. All strings are simulator-controlled (no escaping needed).
func (c *ChromeWriter) event(body string) {
	if c.closed {
		return
	}
	if c.first {
		c.first = false
		c.raw("\n{")
	} else {
		c.raw(",\n{")
	}
	c.raw(body)
	c.raw("}")
}

// metaOnce emits a metadata record (process/thread naming) a single time.
func (c *ChromeWriter) metaOnce(key, body string) {
	if !c.meta[key] {
		c.meta[key] = true
		c.event(body)
	}
}

func (c *ChromeWriter) track(sm int) *smTrack {
	t := c.sms[sm]
	if t == nil {
		t = &smTrack{slots: make(map[int]int)}
		c.sms[sm] = t
		c.metaOnce(fmt.Sprintf("p%d", sm),
			fmt.Sprintf(`"ph":"M","pid":%d,"name":"process_name","args":{"name":"SM%d"}`, sm, sm))
		c.metaOnce(fmt.Sprintf("ps%d", sm),
			fmt.Sprintf(`"ph":"M","pid":%d,"name":"process_sort_index","args":{"sort_index":%d}`, sm, sm))
	}
	return t
}

// openSlot assigns the lowest free CTA-slot tid on the SM.
func (c *ChromeWriter) openSlot(sm, cta int) int {
	t := c.track(sm)
	var tid int
	if n := len(t.free); n > 0 {
		sort.Ints(t.free)
		tid = t.free[0]
		t.free = t.free[1:]
	} else {
		tid = t.nextTid
		t.nextTid++
	}
	t.slots[cta] = tid
	c.metaOnce(fmt.Sprintf("t%d.%d", sm, tid),
		fmt.Sprintf(`"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"slot %d"}`, sm, tid, tid))
	return tid
}

func (c *ChromeWriter) closeSlot(sm, cta int) (int, bool) {
	t := c.track(sm)
	tid, ok := t.slots[cta]
	if ok {
		delete(t.slots, cta)
		t.free = append(t.free, tid)
	}
	return tid, ok
}

// xferTid is the per-SM lane for transfer events whose CTA holds no slot.
const xferTid = 9990

// dramPid is the pseudo-process hosting the global DRAM counter track.
const dramPid = 10000

// poolLane names the SM's pending-pool lane (xferTid) once.
func (c *ChromeWriter) poolLane(sm int) {
	c.metaOnce(fmt.Sprintf("t%d.x", sm),
		fmt.Sprintf(`"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"pending pool"}`, sm, xferTid))
}

func (c *ChromeWriter) ctaCounter(sm int, now int64) {
	t := c.track(sm)
	c.event(fmt.Sprintf(`"ph":"C","pid":%d,"tid":0,"name":"ctas","ts":%d,"args":{"active":%d,"pending":%d}`,
		sm, now, t.active, t.pending))
}

// Event implements Sink. CTA lifecycle events open and close the slot
// slices and move the residency counter; register transfers render as
// instants on the CTA's slot (still open during eviction, already open
// after reactivation) or on the SM's pending-pool lane; the DRAM backlog
// is sampled at most once per CounterEvery cycles to bound file size.
// Warp-level detail is not drawn — the slot slices carry the story.
func (c *ChromeWriter) Event(e Event) {
	sm, cta, now := e.SM, e.CTA, e.Cycle
	switch e.Kind {
	case RunStart:
		c.metaOnce("kernel",
			fmt.Sprintf(`"ph":"i","s":"g","name":"kernel %s","pid":0,"tid":0,"ts":0`, e.Kernel))
	case CTALaunch:
		c.track(sm).active++
		tid := c.openSlot(sm, cta)
		c.event(fmt.Sprintf(`"ph":"B","pid":%d,"tid":%d,"ts":%d,"name":"CTA %d","args":{"cta":%d}`,
			sm, tid, now, cta, cta))
		c.ctaCounter(sm, now)
	case CTADeactivate:
		t := c.track(sm)
		t.active--
		t.pending++
		if tid, ok := c.closeSlot(sm, cta); ok {
			c.event(fmt.Sprintf(`"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"name":"deactivate(state %d)"`,
				sm, tid, now, e.Arg))
			c.event(fmt.Sprintf(`"ph":"E","pid":%d,"tid":%d,"ts":%d`, sm, tid, now))
		}
		c.ctaCounter(sm, now)
	case CTAReactivate:
		t := c.track(sm)
		t.pending--
		t.active++
		tid := c.openSlot(sm, cta)
		c.event(fmt.Sprintf(`"ph":"B","pid":%d,"tid":%d,"ts":%d,"name":"CTA %d","args":{"cta":%d,"resume_delay":%d}`,
			sm, tid, now, cta, cta, e.Arg))
		c.ctaCounter(sm, now)
	case CTAFinish:
		c.track(sm).active--
		if tid, ok := c.closeSlot(sm, cta); ok {
			c.event(fmt.Sprintf(`"ph":"E","pid":%d,"tid":%d,"ts":%d`, sm, tid, now))
		}
		c.ctaCounter(sm, now)
	case CTAFullStall:
		if tid, ok := c.track(sm).slots[cta]; ok {
			c.event(fmt.Sprintf(`"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"name":"full-stall CTA %d"`,
				sm, tid, now, cta))
		}
	case CTAReady:
		c.track(sm)
		c.event(fmt.Sprintf(`"ph":"i","s":"p","pid":%d,"tid":%d,"ts":%d,"name":"ready CTA %d"`,
			sm, xferTid, now, cta))
		c.poolLane(sm)
	case RegTransfer:
		tid, ok := c.track(sm).slots[cta]
		if !ok {
			tid = xferTid
			c.poolLane(sm)
		}
		c.event(fmt.Sprintf(`"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%d,"name":"%s","args":{"cta":%d,"regs":%d,"bytes":%d}`,
			sm, tid, now, e.Xfer, cta, e.Regs, e.Bytes))
	case MemAccess:
		if c.lastDRAMTs >= 0 && now-c.lastDRAMTs < c.CounterEvery {
			return
		}
		c.lastDRAMTs = now
		c.metaOnce("dram",
			fmt.Sprintf(`"ph":"M","pid":%d,"name":"process_name","args":{"name":"DRAM"}`, dramPid))
		c.event(fmt.Sprintf(`"ph":"C","pid":%d,"tid":0,"name":"queue","ts":%d,"args":{"backlog_cycles":%.1f}`,
			dramPid, now, e.Queue))
	}
}
