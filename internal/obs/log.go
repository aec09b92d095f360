package obs

import (
	"io"
	"log/slog"
)

// NewLogger returns a leveled structured logger writing one JSON
// object per line to w — the logger cmd/serve and cmd/pipeline use in
// place of ad-hoc stderr prints. Attribute order within a record is
// fixed by slog (time, level, msg, then attrs in call order), so log
// output is grep- and jq-stable.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// ParseLevel maps a -log-level flag value to a slog.Level, defaulting
// to Info for unknown strings.
func ParseLevel(s string) slog.Level {
	switch s {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}
