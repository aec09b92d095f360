package pipeline

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"syscall"
)

// The store's partitions and the journal are JSONL files that only ever
// grow by appendLines, whole lines per write. A crash mid-append can
// leave a torn last line: the front of a record with no newline. Readers
// and appenders settle such a line the same way (settleTail): it is cut
// off, so the next process can open the file and the next append starts
// on a line of its own; a malformed line anywhere else is still an
// error.

// TornTail reports a torn last line a reader cut off a file.
type TornTail struct {
	Path   string
	Offset int64 // where the line started: the file's length now
	Bytes  int64 // length of the line dropped
	Err    error // why the line did not parse
}

func (t TornTail) String() string {
	return fmt.Sprintf("%s: dropped a torn %d-byte last line at offset %d (%v)", t.Path, t.Bytes, t.Offset, t.Err)
}

// scanLines calls fn on each non-empty line of f from offset from on, in
// order, and returns the offset just past the last line it settled: the
// point a later scan of the grown file starts from. A line fn rejects is
// an error, unless it is the last line and has no newline; such a line
// is settled by repairTail.
func scanLines(f *os.File, from int64, fn func(line []byte) error) (int64, *TornTail, error) {
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, nil, fmt.Errorf("pipeline: %s: %w", f.Name(), err)
	}
	start, end := from, from // byte range of the current line
	terminated := true
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if adv > 0 {
			start, end = end, end+int64(adv)
			terminated = data[adv-1] == '\n'
		}
		return adv, tok, err
	})
	for line := 1; sc.Scan(); line++ {
		if !terminated {
			return repairTail(f, start, end, fn)
		}
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := fn(sc.Bytes()); err != nil {
			if from > 0 {
				return 0, nil, fmt.Errorf("pipeline: %s line %d past offset %d: %w", f.Name(), line, from, err)
			}
			return 0, nil, fmt.Errorf("pipeline: %s line %d: %w", f.Name(), line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, fmt.Errorf("pipeline: %s: %w", f.Name(), err)
	}
	return end, nil, nil
}

// repairTail settles the unterminated last line [start, end) of f and
// returns where the scan ends. Appenders hold the file's lock while they
// write (appendLines), so under that lock a file that is still the one f
// reads and still end bytes long ends in a line nobody is writing: a
// crash cut it short, and settleTail settles it, handing it to fn if it
// parses. A file that grew or was replaced meanwhile had the line
// appended as it was read: it is left alone, and the scan ends before
// it, for the next scan to read whole.
func repairTail(f *os.File, start, end int64, fn func([]byte) error) (int64, *TornTail, error) {
	w, err := os.OpenFile(f.Name(), os.O_RDWR|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		return start, nil, nil // removed meanwhile: the next scan finds it gone
	}
	if err != nil {
		return 0, nil, err
	}
	defer w.Close() // releases the lock
	wi, err := lockCurrent(w, f.Name())
	if err != nil {
		return 0, nil, err
	}
	ri, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	if wi == nil || !os.SameFile(wi, ri) || wi.Size() != end {
		return start, nil, nil
	}
	settled, torn, err := settleTail(w, end, fn)
	if err != nil {
		return 0, nil, err
	}
	return settled, torn, w.Sync()
}

// settleTail settles the unterminated last line of f, which the caller
// has locked (lockCurrent) and which is size bytes long, for readers
// (repairTail) and appenders (appendLines) alike, and returns the file's
// length after. A line parse accepts gets its newline; any other is a
// torn line, cut off and reported. A file that is empty or ends in a
// newline is left as it is. f must be open for reading and appending.
func settleTail(f *os.File, size int64, parse func([]byte) error) (int64, *TornTail, error) {
	var last [1]byte
	if size == 0 {
		return 0, nil, nil
	}
	if _, err := f.ReadAt(last[:], size-1); err != nil {
		return 0, nil, err
	}
	if last[0] == '\n' {
		return size, nil, nil
	}
	start := size // the unterminated line is [start, size)
	var line []byte
	for start > 0 && bytes.IndexByte(line, '\n') < 0 {
		n := min(start, 64<<10)
		chunk := make([]byte, n)
		if _, err := f.ReadAt(chunk, start-n); err != nil {
			return 0, nil, err
		}
		line, start = append(chunk, line...), start-n
	}
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line, start = line[i+1:], start+int64(i)+1
	}
	cause := parse(line)
	if cause == nil {
		_, err := f.Write([]byte{'\n'})
		return size + 1, nil, err
	}
	if err := f.Truncate(start); err != nil {
		return 0, nil, err
	}
	return start, &TornTail{Path: f.Name(), Offset: start, Bytes: size - start, Err: cause}, nil
}

// appendLines appends buf, whole newline-terminated lines, to the file at
// path with one write and makes it durable with one fsync: the one write
// path of the store and the journal. create makes a new file, which must
// not exist yet. The write happens under the file's lock (lockCurrent),
// so a reader repairing a torn tail never mistakes lines in flight for
// one (see repairTail), and only into the file path names once the lock
// is held, so lines never land in a file a reader removed
// (removeUnchanged) or a Compact replaced while the appender waited. A
// file that ends in an unterminated line (a crashed appender's, not read
// yet) has it settled first (settleTail), with parse, so buf never glues
// onto a torn line. appendLines reports whether, under the lock, the
// file was view and off bytes long once settled (a new file counts as
// caught up): whether the caller's view of the file had reached its end.
// A write or fsync that fails is undone, so the caller's error means the
// lines are gone.
func appendLines(path string, buf []byte, create bool, view os.FileInfo, off int64, parse func([]byte) error) (caughtUp bool, err error) {
	flags := os.O_RDWR | os.O_APPEND
	if create {
		flags |= os.O_CREATE | os.O_EXCL
	}
	for {
		f, err := os.OpenFile(path, flags, 0o644)
		if err != nil {
			return false, err
		}
		before, err := lockCurrent(f, path)
		if err != nil || before == nil {
			_ = f.Close() // only read: nothing was written to it
			if err != nil {
				return false, err
			}
			continue // removed or replaced while this appender waited
		}
		size, _, err := settleTail(f, before.Size(), parse)
		if err != nil {
			_ = f.Close()
			return false, err
		}
		if _, err = f.Write(buf); err == nil {
			err = f.Sync()
		}
		if err != nil {
			// Best effort: the write error is the one worth reporting.
			if create {
				_ = os.Remove(path)
			} else {
				_ = f.Truncate(size)
			}
			_ = f.Close()
			return false, err
		}
		return create || (os.SameFile(before, view) && size == off), f.Close()
	}
}

// lockCurrent takes the exclusive flock on f, opened from path, and
// returns f's state under the lock; nil when path no longer names f.
// It holds the package's only flock: appenders, tail repairs, Compact
// and removeUnchanged all lock through it.
func lockCurrent(f *os.File, path string) (os.FileInfo, error) {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return nil, fmt.Errorf("pipeline: locking %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	cur, err := os.Stat(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if !os.SameFile(fi, cur) {
		return nil, nil
	}
	return fi, nil
}

// removeUnchanged removes the file f reads if, under the appenders'
// lock, path still names it and it is still size bytes long: nothing
// was appended since it was read. It reports whether it removed it.
func removeUnchanged(f *os.File, size int64) (bool, error) {
	fi, err := lockCurrent(f, f.Name())
	if err != nil || fi == nil || fi.Size() != size {
		return false, err
	}
	return true, os.Remove(f.Name())
}
