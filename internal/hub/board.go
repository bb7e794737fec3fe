package hub

import (
	"fmt"
	"io"

	"repro/internal/fiber"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The instrumentation board (paper §4.1) "can monitor and record events
// related to the crossbar and its controller". It is an obs.FlightRecorder
// separate from the system's, so crossbar traffic never pushes a
// post-mortem's rare events out of that ring. Each crossbar event is one
// Note with integer operands; describe turns them back into text when the
// log is read, so recording never formats or allocates. The operands:
//
//	FCommand, FFrameError  A = command word
//	FReply                 A = command word | ok<<24   B = value
//	FConnOpen              A = port pair | retried<<32 B = time the connection is ready
//	FConnClose             A = port pair
//	FConnRetry             A = port pair               B = opcode | retry reason<<8
//	FPacketOut             A = payload bytes
//	FPacketDrop            A = item word               B = drop reason
//	FLock                  A = lock | queued<<8        B = port
//	FUnlock                A = lock
//
// A command word is op<<16 | hub<<8 | param, a port pair in<<16 | out, and
// an item word kind<<40 | ok<<32 | (payload bytes or command word).

func cmdWord(c fiber.Command) int64 { return int64(c.Op)<<16 | int64(c.Hub)<<8 | int64(c.Param) }
func cmdOf(w int64) fiber.Command {
	return fiber.Command{Op: byte(w >> 16), Hub: byte(w >> 8), Param: byte(w)}
}
func portPair(in, out int) int64 { return int64(in)<<16 | int64(out) }

func bit(b bool, shift uint) int64 {
	if b {
		return 1 << shift
	}
	return 0
}

func itemWord(it *fiber.Item) int64 {
	w := int64(it.Kind)<<40 | bit(it.ReplyOK, 32)
	if it.Kind == fiber.KindPacket {
		return w | int64(len(it.Payload))
	}
	return w | cmdWord(it.Cmd)
}

// Why a port discarded an item (FPacketDrop's B).
const (
	dropDisabled = iota
	dropOverflow
	dropReset
	dropFlushed
	dropNoConn
	dropStuck
)

var dropReasons = [...]string{"port disabled", "input queue overflow", "port reset", "flushed", "no connection", "output register stuck"}

// Why an open did not get its output (FConnRetry's reason).
const (
	retryFailed = iota
	retryBusy
	retryAbandoned
)

// describe renders the detail of one board event: the text after its
// time, kind and place in the event log.
func describe(ev obs.Event) string {
	a, b := ev.A, ev.B
	ports := fmt.Sprintf("p%d->p%d", uint16(a>>16), uint16(a))
	switch ev.Kind {
	case obs.FCommand:
		return cmdOf(a).String()
	case obs.FFrameError:
		return fmt.Sprintf("lost command %v", cmdOf(a))
	case obs.FReply:
		label := "val"
		if Opcode(a >> 16).IsComb() {
			label = "data"
		}
		return fmt.Sprintf("%v ok=%v %s=%d", cmdOf(a), a>>24&1 == 1, label, uint64(b))
	case obs.FConnOpen:
		if a>>32&1 == 1 {
			return fmt.Sprintf("%s at %v (retried)", ports, sim.Time(b))
		}
		return fmt.Sprintf("%s at %v", ports, sim.Time(b))
	case obs.FConnClose:
		return ports
	case obs.FConnRetry:
		switch b >> 8 {
		case retryFailed:
			return fmt.Sprintf("%s %v output failed", ports, Opcode(b))
		case retryBusy:
			return fmt.Sprintf("%s %v busy/not-ready", ports, Opcode(b))
		}
		return ports + " abandoned (output reset)"
	case obs.FPacketOut:
		return fmt.Sprintf("packet[%dB]", a)
	case obs.FPacketDrop:
		return describeItem(a) + ": " + dropReasons[b]
	case obs.FLock:
		if a>>8&1 == 1 {
			return fmt.Sprintf("lock%d by p%d (queued)", byte(a), b)
		}
		return fmt.Sprintf("lock%d by p%d", byte(a), b)
	case obs.FUnlock:
		return fmt.Sprintf("lock%d", a)
	}
	return fmt.Sprintf("a=%d b=%d", a, b)
}

// describeItem renders an item word as fiber.Item.String renders the item.
func describeItem(w int64) string {
	it := fiber.Item{Kind: fiber.ItemKind(w >> 40), Cmd: cmdOf(w), ReplyOK: w>>32&1 == 1}
	if it.Kind == fiber.KindPacket {
		return fmt.Sprintf("packet[%dB]", uint32(w))
	}
	return it.String()
}

// WriteLog writes the board's retained events oldest first, one line each,
// and then how many earlier events the ring no longer holds. A nil board
// writes nothing.
func WriteLog(w io.Writer, board *obs.FlightRecorder) {
	for _, ev := range board.Events() {
		fmt.Fprintf(w, "%12v %-12s %-12s %s\n", ev.At, ev.Kind, ev.Where, describe(ev))
	}
	if n := board.Dropped(); n > 0 {
		fmt.Fprintf(w, "… %d more events not retained (limit %d)\n", n, board.Cap())
	}
}
