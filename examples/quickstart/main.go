// Command quickstart reproduces the paper's §2 walkthrough end to end:
// define a stochastic loss model over a parameter table, run a SUM query
// under 1000 Monte Carlo repetitions, then condition the result
// distribution to the upper 1% tail with MCDB-R tail sampling and report
// the value at risk and expected shortfall.
package main

import (
	"fmt"
	"log"

	"repro/internal/workload"
	"repro/mcdbr"
)

func main() {
	engine := mcdbr.New(mcdbr.WithSeed(42))

	// Parameter table: per-customer mean losses (the paper's means(CID,m)).
	engine.RegisterTable(workload.LossMeans(100, 2, 8, 7))

	// Step 1 (paper §2): define the uncertain Losses table. Only the
	// schema is stored; instances are generated at query time.
	if _, err := engine.Exec(`
CREATE TABLE Losses (CID, val) AS
FOR EACH CID IN means
WITH myVal AS Normal(VALUES(m, 1.0))
SELECT CID, myVal.* FROM myVal`); err != nil {
		log.Fatal(err)
	}

	// Step 2: plain Monte Carlo exploration of the query-result
	// distribution (original MCDB semantics).
	res, err := engine.Exec(`
SELECT SUM(val) AS totalLoss
FROM Losses
WHERE CID < 10050
WITH RESULTDISTRIBUTION MONTECARLO(1000)`)
	if err != nil {
		log.Fatal(err)
	}
	dist := res.Dist
	fmt.Printf("unconditioned totalLoss: mean=%.2f sd=%.2f [%d samples]\n",
		dist.Mean(), dist.Std(), len(dist.Samples))

	// Step 3: risk analysis — condition on the top 1% of losses.
	res, err = engine.ExecWithOptions(`
SELECT SUM(val) AS totalLoss
FROM Losses
WHERE CID < 10050
WITH RESULTDISTRIBUTION MONTECARLO(100)
DOMAIN totalLoss >= QUANTILE(0.99)
FREQUENCYTABLE totalLoss`, mcdbr.TailSampleOptions{TotalSamples: 500})
	if err != nil {
		log.Fatal(err)
	}
	tailRes := res.Tail
	fmt.Printf("value at risk (0.99-quantile estimate): %.2f\n", tailRes.QuantileEstimate)
	fmt.Printf("expected shortfall E[loss | tail]:      %.2f\n", tailRes.ExpectedShortfall)

	// The frequency table is an ordinary relation; re-query it as in the
	// paper.
	minRes, err := engine.Exec(`SELECT MIN(totalLoss) FROM FTABLE`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tail boundary via SELECT MIN(totalLoss) FROM FTABLE: %.2f\n", minRes.Scalar)

	fmt.Printf("tail-sampling iterations: %d\n", len(tailRes.Diag.Iters))
}
