package pipeline

import (
	"bufio"
	"fmt"
	"os"
	"syscall"
)

// The store's partitions and the journal are JSONL files that only ever
// grow by appendLine, one whole line per write. A crash mid-append can
// leave a torn last line: the front of a record with no newline. Readers
// cut such a line off, so the next process can open the file and the
// next append starts on a line of its own; a malformed line anywhere
// else is still an error.

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

// scanLines calls fn on each non-empty line of the file at path, in
// order. A line fn rejects is an error, unless
// it is the last line and has no newline: then it is cut off the file
// and reported instead. A last line fn accepts gets its missing newline
// written, so the next append cannot run into it (see repairTail).
func scanLines(path string, fn func(line []byte) error) (*TornTail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var start, end int64 // byte range of the current line
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
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := fn(sc.Bytes()); err != nil {
			if terminated {
				return nil, fmt.Errorf("pipeline: %s line %d: %w", path, line, err)
			}
			return repairTail(path, start, end, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", path, err)
	}
	if !terminated {
		return repairTail(path, start, end, nil)
	}
	return nil, nil
}

// repairTail mends the unterminated last line [start, end) of path: a
// line that did not parse (cause) is truncated away and reported, one
// that did gets its newline. Appenders hold an exclusive flock while
// they write (appendLine), so under that lock a file still end bytes
// long ends in a line nobody is writing: a crash cut it short. A longer
// file means the line was being appended as it was read and is whole
// now; it is left alone, and the caller's view simply ends before it.
func repairTail(path string, start, end int64, cause error) (*TornTail, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close() // releases the lock
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return nil, fmt.Errorf("pipeline: locking %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() != end {
		return nil, nil
	}
	if cause == nil {
		if _, err := f.WriteAt([]byte{'\n'}, end); err != nil {
			return nil, err
		}
		return nil, f.Sync()
	}
	if err := f.Truncate(start); err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	return &TornTail{Path: path, Offset: start, Bytes: end - start, Err: cause}, nil
}

// appendLine appends one newline-terminated line and fsyncs. create
// allows creating the file (first line of a new partition). The write
// happens under an exclusive flock, so a reader repairing a torn tail
// never mistakes a line in flight for one (see repairTail).
func appendLine(path string, line []byte, create bool) error {
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		_ = f.Close()
		return fmt.Errorf("pipeline: locking %s: %w", path, err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
