package repro.core

/** All tunables of a Hercules (or baseline) index instance.
  *
  * Paper defaults (§4.2): leaf capacity 100K, 16 SAX segments, alphabet 256,
  * Lmax 80, EAPCA_TH 0.25, SAX_TH 0.50, 24 build threads, flush threshold 12
  * (half the build threads, as [[ParallelBuilder]] derives it).
  * Scaled-down builds keep the ratios but shrink absolute sizes (DESIGN.md §7).
  *
  * @param seriesLength    number of points per data series (fixed per index)
  * @param leafCapacity    max series per leaf before a split (τ)
  * @param saxSegments     iSAX/PAA segment count (paper: 16)
  * @param saxCardinality  iSAX alphabet size (paper: 256)
  * @param buildThreads    InsertWorker count of the build protocol, in every
  *                        mode (DSTree* forces 1)
  * @param writerThreads   WriteIndexWorker count for the index-writing phase
  * @param dbSize          DBuffer chunk size, in series (paper: 120K)
  * @param hbufferSlots    HBuffer capacity in series slots, split evenly into
  *                        one region per build thread; 0 = the dataset plus
  *                        one DBuffer chunk. Even then a flush can occur with
  *                        several threads, when one claims more than its
  *                        region holds (paper: 60GB buffer)
  */
final case class IndexConfig(
    seriesLength: Int,
    leafCapacity: Int = 100,
    saxSegments: Int = 16,
    saxCardinality: Int = 256,
    buildThreads: Int = 1,
    writerThreads: Int = 1,
    dbSize: Int = 2048,
    hbufferSlots: Int = 0,
) {
  require(seriesLength > 0, "seriesLength must be positive")
  require(leafCapacity >= 2, "leafCapacity must be at least 2")
  require(saxSegments >= 1, "saxSegments must be at least 1")
  require(saxCardinality >= 2 && saxCardinality <= 256 && Integer.bitCount(saxCardinality) == 1,
    "saxCardinality must be a power of two from 2 to 256")
  require(buildThreads >= 1 && writerThreads >= 1 && dbSize >= 1, "thread counts and dbSize must be positive")
  require(hbufferSlots >= 0, "hbufferSlots must not be negative")

  /** Effective SAX segment count: never more segments than points. */
  def saxSegmentsEff: Int = math.min(saxSegments, seriesLength)
}

/** Query-time knobs of Algorithm 10 plus the ablation switches of §4 (Fig 12b).
  *
  * @param lmax          max leaves visited by the approximate search (paper: 80)
  * @param k             neighbors to return
  * @param eapcaTh       EAPCA pruning threshold below which a skip-sequential
  *                      scan replaces steps 3–4 (paper: 0.25)
  * @param saxTh         SAX pruning threshold below which a skip-sequential
  *                      scan replaces step 4 (paper: 0.50)
  * @param useSax        false = NoSAX ablation (EAPCA pruning only)
  * @param threads       worker threads for steps 3–4; 1 = NoPara ablation
  * @param useThresholds false = NoThresh ablation (never fall back to scans)
  */
final case class QueryKnobs(
    k: Int = 1,
    lmax: Int = 80,
    eapcaTh: Double = 0.25,
    saxTh: Double = 0.50,
    useSax: Boolean = true,
    threads: Int = 1,
    useThresholds: Boolean = true,
) {
  require(k >= 1 && lmax >= 1 && threads >= 1)
}
