// Command journalcheck validates a flowrank bin journal — the JSON-lines
// stream flowrankd -journal and flowtop -journal write — line by line
// against pipeline.BinRecord, the type that writes it and the journal's
// only schema: every line must carry the slog envelope, and every bin
// line's record must decode into BinRecord and hold each field the
// encoder always writes (unknown keys pass). It is the CI oracle of the
// e2e-obs harness and a quick sanity check for operators: a journal that
// passes is safe to feed to jq pipelines and dashboards that assume the
// schema. A failure names the line it is on.
//
// Usage:
//
//	journalcheck journal.jsonl
//	flowrankd ... -journal - | journalcheck -min-bins 3 -
//
// Exit status is non-zero when any line fails validation or when fewer
// than -min-bins bin records were found.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"flowrank/internal/pipeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("journalcheck: ")
	minBins := flag.Int("min-bins", 1, "fail unless at least this many bin records validate")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: journalcheck [-min-bins N] <journal.jsonl | ->")
	}
	var in io.Reader = os.Stdin
	if path := flag.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	bins, err := pipeline.ValidateJournal(in)
	if err != nil {
		log.Fatal(err)
	}
	if bins < *minBins {
		log.Fatalf("%d bin records, want at least %d", bins, *minBins)
	}
	fmt.Printf("journal ok: %d bin records\n", bins)
}
