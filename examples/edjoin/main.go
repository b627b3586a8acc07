// Edjoin: approximate string matching under edit distance — the
// application the paper's footnote 1 mentions. Product titles with typos
// are matched within edit distance 2 using q-gram count filtering and
// banded verification, both single-node and as one MapReduce job on the
// bundled engine.
//
//	go run ./examples/edjoin
package main

import (
	"fmt"
	"log"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/editdist"
	"fuzzyjoin/internal/mapreduce"
)

func main() {
	titles := []string{
		"wireless noise cancelling headphones",
		"wireless noise canceling headphones", // 1 edit
		"wireless noise cancelling headphone", // 1 edit
		"bluetooth speaker waterproof",
		"bluetooth speaker watreproof", // transposition = 2 edits
		"mechanical keyboard rgb",
		"mechanical keyboard rgb", // identical
		"usb c charging cable 2m",
		"completely unrelated garden hose",
	}
	o := editdist.Options{K: 2, Q: 3}

	// Single-node kernel.
	pairs := editdist.SelfJoin(titles, o)
	fmt.Printf("single-node ed-join (K=%d): %d matches\n", o.K, len(pairs))
	for _, p := range pairs {
		fmt.Printf("  d=%d  %q ~ %q\n", p.Dist, titles[p.I], titles[p.J])
	}

	// The same join as one MapReduce job.
	fs := dfs.New(dfs.Options{Nodes: 2})
	lines := make([]string, len(titles))
	for i, s := range titles {
		lines[i] = fmt.Sprintf("%d\t%s", i, s)
	}
	if err := mapreduce.WriteTextFile(fs, "titles", lines); err != nil {
		log.Fatal(err)
	}
	outPrefix, m, err := editdist.MapReduceSelfJoin(fs, "titles", "work", o, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	outLines, err := mapreduce.ReadLines(fs, outPrefix+"/")
	if err != nil {
		log.Fatal(err)
	}
	mrPairs := editdist.SortOutput(outLines)
	fmt.Printf("\nmapreduce ed-join: %d matches from job %s (identical result: %v)\n",
		len(mrPairs), m.Job, fmt.Sprint(mrPairs) == fmt.Sprint(pairs))
}
