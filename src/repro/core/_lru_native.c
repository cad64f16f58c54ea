/* Native LRU-engine backend: the scalar core of repro.core.lru_engine
 * compiled to machine code.
 *
 * State layout matches the Python engine's tombstone ring: per set, a
 * `ring_lines`/`ring_dirty`/`ring_valid` window [head, tail) holds the
 * residents in recency order (LRU first), a touched line's old slot is
 * tombstoned, and the ring is compacted in place when it fills.  The
 * resident-line -> slot map is an open-addressing hash table (linear
 * probing, tombstone deletion) sized at >= 4x the set capacity.
 *
 * All state lives in NumPy arrays owned by the Python wrapper
 * (repro.core.lru_native); this library only mutates them, so the
 * wrapper can inspect rings directly and the engine needs no allocator.
 *
 * The header array `hdr` (int64) carries configuration and counters:
 *   [0] n_sets  [1] set_capacity  [2] line_bytes  [3] ring_size
 *   [4] table_size (power of two, per set)
 *   [5] hits  [6] miss_count  [7] writeback_count
 *   [8] pending chain victim (NIL when no chain is suspended)
 *
 * The integrity-tree parent function is a flat region table `geom`:
 *   geom[0] = n_regions, then 4 int64 per region:
 *   [base, end, parent_base, arity]
 * parent(addr) = parent_base + ((addr - base) / line_bytes / arity)
 *                * line_bytes  for the first region with base <= addr
 *                < end, NIL otherwise.  This encodes exactly
 *   CounterModeProtection._parent_of (MAC region and the top stored
 *   level fall in no region).
 *
 * lru_probe processes a run of distinct ascending lines with write-back
 * chains followed in place, appending events to three caller-owned
 * buffers.  It returns the index of the first unprocessed line: when the
 * buffers fill mid-run the call pauses (between accesses, or mid-chain
 * with the pending victim parked in hdr[8]) so the wrapper can drain and
 * resume with bounded memory.
 *
 * lru_probe_range is lru_probe over `n` consecutive lines from `base`
 * (no line array crosses the boundary).  lru_walk climbs the whole
 * integrity tree from a wave of missed nodes in one call: each wave
 * probes the deduped parents of the previous wave's misses clean, so
 * the walk stops at the first fully-cached level.  lru_runs prices a
 * whole trace chunk's column of fused MAC/VN runs — per row, the MAC
 * range, the VN range (collecting its misses as walk seeds), then the
 * walk.  A range flagged as a flood (at least cache-sized) is not
 * probed: the cache is flushed instead, its dirty lines becoming that
 * row's writebacks, and a flooded VN range skips the walk.  After each
 * row the running event counts are stored as that row's end offsets,
 * so every event is attributable to its row.  The same pause/resume
 * protocol applies, mid-flush included; all cursor state lives in
 * caller-owned state arrays so a paused call resumes exactly where it
 * left off.
 */

#include <stdint.h>

#define NIL (-1)
#define EMPTY (-1)
#define TOMB (-2)

typedef struct {
    int64_t n_sets, setcap, line_bytes, rsize, tsize;
    int64_t *heads, *tails, *counts, *useds;
    int64_t *ring_lines;
    uint8_t *ring_dirty, *ring_valid;
    int64_t *keys, *vals;
    const int64_t *geom;
} Eng;

static inline int64_t set_of(const Eng *g, int64_t line) {
    if (g->n_sets == 1)
        return 0;
    return (line / g->line_bytes) % g->n_sets;
}

static inline int64_t parent_of(const Eng *g, int64_t addr) {
    if (!g->geom)
        return NIL;
    int64_t n = g->geom[0];
    const int64_t *r = g->geom + 1;
    for (int64_t i = 0; i < n; i++, r += 4) {
        if (addr >= r[0] && addr < r[1])
            return r[2] + ((addr - r[0]) / g->line_bytes / r[3]) * g->line_bytes;
    }
    return NIL;
}

/* -- hash table: line address -> ring slot ---------------------------- */

static inline int64_t hslot(int64_t key, int64_t mask) {
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    return (int64_t)(h & (uint64_t)mask);
}

static int64_t hfind(const int64_t *keys, int64_t tsize, int64_t key) {
    int64_t mask = tsize - 1, i = hslot(key, mask);
    for (;;) {
        int64_t k = keys[i];
        if (k == key)
            return i;
        if (k == EMPTY)
            return -1;
        i = (i + 1) & mask;
    }
}

/* Insert a key known to be absent (callers look up first). */
static void hinsert(int64_t *keys, int64_t *vals, int64_t tsize,
                    int64_t *used, int64_t key, int64_t val) {
    int64_t mask = tsize - 1, i = hslot(key, mask);
    for (;;) {
        int64_t k = keys[i];
        if (k == EMPTY) {
            keys[i] = key;
            vals[i] = val;
            (*used)++;
            return;
        }
        if (k == TOMB) {
            keys[i] = key;
            vals[i] = val;
            return;
        }
        i = (i + 1) & mask;
    }
}

static void hdelete(int64_t *keys, int64_t tsize, int64_t key) {
    int64_t mask = tsize - 1, i = hslot(key, mask);
    for (;;) {
        int64_t k = keys[i];
        if (k == key) {
            keys[i] = TOMB;
            return;
        }
        if (k == EMPTY)
            return;
        i = (i + 1) & mask;
    }
}

/* Rebuild a set's table from the ring when tombstones crowd it. */
static void rebuild(Eng *g, int64_t s) {
    int64_t *keys = g->keys + s * g->tsize;
    int64_t *vals = g->vals + s * g->tsize;
    int64_t *L = g->ring_lines + s * g->rsize;
    uint8_t *V = g->ring_valid + s * g->rsize;
    for (int64_t i = 0; i < g->tsize; i++)
        keys[i] = EMPTY;
    g->useds[s] = 0;
    for (int64_t i = g->heads[s]; i < g->tails[s]; i++) {
        if (V[i])
            hinsert(keys, vals, g->tsize, &g->useds[s], L[i], i);
    }
}

/* Squeeze tombstones out of a set's ring (O(capacity)). */
static void compact(Eng *g, int64_t s) {
    int64_t *L = g->ring_lines + s * g->rsize;
    uint8_t *D = g->ring_dirty + s * g->rsize;
    uint8_t *V = g->ring_valid + s * g->rsize;
    int64_t w = 0;
    for (int64_t i = g->heads[s]; i < g->tails[s]; i++) {
        if (V[i]) {
            L[w] = L[i];
            D[w] = D[i];
            w++;
        }
    }
    for (int64_t i = 0; i < w; i++)
        V[i] = 1;
    for (int64_t i = w; i < g->tails[s]; i++)
        V[i] = 0;
    g->heads[s] = 0;
    g->tails[s] = w;
    int64_t *keys = g->keys + s * g->tsize;
    int64_t *vals = g->vals + s * g->tsize;
    for (int64_t i = 0; i < w; i++)
        vals[hfind(keys, g->tsize, L[i])] = i;
}

/* -- scalar core ------------------------------------------------------ */

/* One MetadataCache.access without chain following.  Returns 1 on hit.
 * On a miss the line is allocated; `*victim` gets the dirty victim line
 * (NIL otherwise) and `*evicted` whatever line left the set. */
static int touch(Eng *g, int64_t s, int64_t line, int dirty,
                 int64_t *victim, int64_t *evicted) {
    int64_t *keys = g->keys + s * g->tsize;
    int64_t *vals = g->vals + s * g->tsize;
    int64_t *L = g->ring_lines + s * g->rsize;
    uint8_t *D = g->ring_dirty + s * g->rsize;
    uint8_t *V = g->ring_valid + s * g->rsize;
    int64_t hidx = hfind(keys, g->tsize, line);
    if (hidx >= 0) {
        int64_t pos = vals[hidx];
        int was_dirty = D[pos];
        V[pos] = 0;
        if (g->tails[s] + 1 > g->rsize)
            compact(g, s); /* keys untouched: hidx stays valid */
        int64_t t = g->tails[s];
        L[t] = line;
        D[t] = (uint8_t)(dirty | was_dirty);
        V[t] = 1;
        vals[hidx] = t;
        g->tails[s] = t + 1;
        *victim = NIL;
        *evicted = NIL;
        return 1;
    }
    int64_t vic = NIL, ev = NIL;
    if (g->counts[s] >= g->setcap) {
        int64_t h = g->heads[s];
        while (!V[h])
            h++;
        int64_t vline = L[h];
        ev = vline;
        if (D[h])
            vic = vline;
        V[h] = 0;
        g->heads[s] = h + 1;
        hdelete(keys, g->tsize, vline);
        g->counts[s]--;
    }
    if ((g->useds[s] + 1) * 4 > g->tsize * 3)
        rebuild(g, s);
    if (g->tails[s] + 1 > g->rsize)
        compact(g, s);
    int64_t t = g->tails[s];
    L[t] = line;
    D[t] = (uint8_t)dirty;
    V[t] = 1;
    hinsert(keys, vals, g->tsize, &g->useds[s], line, t);
    g->tails[s] = t + 1;
    g->counts[s]++;
    *victim = vic;
    *evicted = ev;
    return 0;
}

/* Write back `victim` and update its ancestors (LruEngine._chain).
 * Returns 1 when pausing for full event buffers (victim parked in
 * hdr[8]), 0 when the chain ran to completion. */
static int chain(Eng *g, int64_t *hdr, int64_t victim, int64_t *wb_out,
                 int64_t *pm_out, int64_t *fills, int64_t ev_cap) {
    for (;;) {
        if (fills[1] >= ev_cap || fills[2] >= ev_cap) {
            hdr[8] = victim;
            return 1;
        }
        wb_out[fills[1]++] = victim;
        hdr[7]++;
        int64_t parent = parent_of(g, victim);
        if (parent == NIL)
            return 0;
        int64_t v, e;
        if (touch(g, set_of(g, parent), parent, 1, &v, &e)) {
            hdr[5]++;
            return 0;
        }
        hdr[6]++;
        pm_out[fills[2]++] = parent;
        if (v == NIL)
            return 0;
        victim = v;
    }
}

/* One step of the whole-tree walk (shared by lru_walk and lru_runs).
 *
 * `ws` is the walk cursor: [0] index into the current wave, [1] wave
 * length, [2] entries pushed into `next` so far, [3] seeded flag.
 * While unseeded, `wave[0..wn)` holds the missed nodes of the level
 * below (ascending, distinct) and is replaced by their deduped stored
 * parents without probing — the walk starts one level up.  Each wave
 * entry is then probed clean; a miss emits an event and pushes its
 * parent (adjacent-dedup suffices: misses are an ascending subsequence
 * and the parent mapping is monotone within a level).  When a wave
 * drains, `next` becomes the wave; an empty `next` means some level
 * fully hit (or the top stored level was reached) and the walk is done.
 * Returns 1 on completion, 0 when pausing for full event buffers (a
 * mid-chain victim parks in hdr[8] as usual). */
static int walk_tick(Eng *g, int64_t *hdr, int64_t *wave, int64_t *next,
                     int64_t *ws, int64_t *miss_out, int64_t *wb_out,
                     int64_t *pm_out, int64_t *fills, int64_t ev_cap) {
    int64_t i = ws[0], wn = ws[1], nn = ws[2];
    if (!ws[3]) {
        nn = 0;
        for (int64_t k = 0; k < wn; k++) {
            int64_t p = parent_of(g, wave[k]);
            if (p != NIL && (nn == 0 || next[nn - 1] != p))
                next[nn++] = p;
        }
        for (int64_t k = 0; k < nn; k++)
            wave[k] = next[k];
        wn = nn;
        nn = 0;
        i = 0;
        ws[3] = 1;
    }
    for (;;) {
        while (i < wn) {
            if (fills[0] >= ev_cap || fills[1] >= ev_cap ||
                fills[2] >= ev_cap) {
                ws[0] = i;
                ws[1] = wn;
                ws[2] = nn;
                return 0;
            }
            int64_t line = wave[i];
            int64_t v, e;
            if (touch(g, set_of(g, line), line, 0, &v, &e)) {
                hdr[5]++;
                i++;
                continue;
            }
            hdr[6]++;
            miss_out[fills[0]++] = line;
            int64_t p = parent_of(g, line);
            if (p != NIL && (nn == 0 || next[nn - 1] != p))
                next[nn++] = p;
            i++;
            if (v != NIL &&
                chain(g, hdr, v, wb_out, pm_out, fills, ev_cap)) {
                ws[0] = i;
                ws[1] = wn;
                ws[2] = nn;
                return 0;
            }
        }
        if (nn == 0)
            return 1;
        for (int64_t k = 0; k < nn; k++)
            wave[k] = next[k];
        wn = nn;
        nn = 0;
        i = 0;
    }
}

static Eng make_eng(int64_t *hdr, int64_t *heads, int64_t *tails,
                    int64_t *counts, int64_t *useds, int64_t *ring_lines,
                    uint8_t *ring_dirty, uint8_t *ring_valid, int64_t *keys,
                    int64_t *vals, const int64_t *geom) {
    Eng g;
    g.n_sets = hdr[0];
    g.setcap = hdr[1];
    g.line_bytes = hdr[2];
    g.rsize = hdr[3];
    g.tsize = hdr[4];
    g.heads = heads;
    g.tails = tails;
    g.counts = counts;
    g.useds = useds;
    g.ring_lines = ring_lines;
    g.ring_dirty = ring_dirty;
    g.ring_valid = ring_valid;
    g.keys = keys;
    g.vals = vals;
    g.geom = (geom && geom[0] > 0) ? geom : 0;
    return g;
}

#define ENG_ARGS                                                              \
    int64_t *hdr, int64_t *heads, int64_t *tails, int64_t *counts,            \
        int64_t *useds, int64_t *ring_lines, uint8_t *ring_dirty,             \
        uint8_t *ring_valid, int64_t *keys, int64_t *vals,                    \
        const int64_t *geom
#define ENG_VALS hdr, heads, tails, counts, useds, ring_lines, ring_dirty,    \
        ring_valid, keys, vals, geom

/* -- entry points ----------------------------------------------------- */

int64_t lru_probe(ENG_ARGS, const int64_t *run, int64_t n, int64_t start,
                  int64_t dirty, int64_t *miss_out, int64_t *wb_out,
                  int64_t *pm_out, int64_t *fills, int64_t ev_cap) {
    Eng g = make_eng(ENG_VALS);
    int64_t i = start;
    int64_t pending = hdr[8];
    hdr[8] = NIL;
    if (pending != NIL) {
        if (chain(&g, hdr, pending, wb_out, pm_out, fills, ev_cap))
            return i;
    }
    for (; i < n; i++) {
        if (fills[0] >= ev_cap || fills[1] >= ev_cap || fills[2] >= ev_cap)
            return i;
        int64_t line = run[i];
        int64_t v, e;
        if (touch(&g, set_of(&g, line), line, (int)dirty, &v, &e)) {
            hdr[5]++;
            continue;
        }
        hdr[6]++;
        miss_out[fills[0]++] = line;
        if (v != NIL) {
            if (chain(&g, hdr, v, wb_out, pm_out, fills, ev_cap))
                return i + 1;
        }
    }
    return n;
}

/* lru_probe over `n` consecutive lines from `base` (stride line_bytes).
 * Same contract: returns the first unprocessed index, pausing on full
 * event buffers with any mid-chain victim parked in hdr[8]. */
int64_t lru_probe_range(ENG_ARGS, int64_t base, int64_t n, int64_t start,
                        int64_t dirty, int64_t *miss_out, int64_t *wb_out,
                        int64_t *pm_out, int64_t *fills, int64_t ev_cap) {
    Eng g = make_eng(ENG_VALS);
    int64_t i = start;
    int64_t pending = hdr[8];
    hdr[8] = NIL;
    if (pending != NIL) {
        if (chain(&g, hdr, pending, wb_out, pm_out, fills, ev_cap))
            return i;
    }
    for (; i < n; i++) {
        if (fills[0] >= ev_cap || fills[1] >= ev_cap || fills[2] >= ev_cap)
            return i;
        int64_t line = base + i * g.line_bytes;
        int64_t v, e;
        if (touch(&g, set_of(&g, line), line, (int)dirty, &v, &e)) {
            hdr[5]++;
            continue;
        }
        hdr[6]++;
        miss_out[fills[0]++] = line;
        if (v != NIL) {
            if (chain(&g, hdr, v, wb_out, pm_out, fills, ev_cap))
                return i + 1;
        }
    }
    return n;
}

/* Whole-tree walk from a wave of missed nodes (see walk_tick).  The
 * caller seeds `wave[0..wstate[1])` with the missed node addresses and
 * zeroes the rest of `wstate`; `wave`/`next` must each hold at least
 * that many entries (waves only shrink).  Returns 1 on completion, 0
 * when pausing for full event buffers. */
int64_t lru_walk(ENG_ARGS, int64_t *wave, int64_t *next, int64_t *wstate,
                 int64_t *miss_out, int64_t *wb_out, int64_t *pm_out,
                 int64_t *fills, int64_t ev_cap) {
    Eng g = make_eng(ENG_VALS);
    int64_t pending = hdr[8];
    hdr[8] = NIL;
    if (pending != NIL) {
        if (chain(&g, hdr, pending, wb_out, pm_out, fills, ev_cap))
            return 0;
    }
    return walk_tick(&g, hdr, wave, next, wstate, miss_out, wb_out, pm_out,
                     fills, ev_cap);
}

static void reset_eng(Eng *g, int64_t *hdr) {
    for (int64_t s = 0; s < g->n_sets; s++) {
        g->heads[s] = g->tails[s] = g->counts[s] = g->useds[s] = 0;
        int64_t *k = g->keys + s * g->tsize;
        for (int64_t i = 0; i < g->tsize; i++)
            k[i] = EMPTY;
    }
    int64_t total = g->n_sets * g->rsize;
    for (int64_t i = 0; i < total; i++)
        g->ring_valid[i] = 0;
    hdr[8] = NIL;
}

/* Resumable flush: append every dirty line (recency order, set-major)
 * to `wb_out` as a writeback, then evict everything.  `fs` is the
 * cursor: [0] set, [1] ring index.  Nothing mutates the cache until the
 * scan completes, so a pause for a full writeback buffer resumes at the
 * saved slot.  Returns 1 when done, 0 when pausing. */
static int flush_tick(Eng *g, int64_t *hdr, int64_t *fs, int64_t *wb_out,
                      int64_t *fills, int64_t ev_cap) {
    int64_t resident = 0;
    for (int64_t s = 0; s < g->n_sets; s++)
        resident += g->counts[s];
    if (resident == 0)
        return 1; /* nothing was inserted since the last reset */
    for (int64_t s = fs[0]; s < g->n_sets; s++) {
        int64_t *L = g->ring_lines + s * g->rsize;
        uint8_t *D = g->ring_dirty + s * g->rsize;
        uint8_t *V = g->ring_valid + s * g->rsize;
        int64_t i = fs[1] > g->heads[s] ? fs[1] : g->heads[s];
        for (; i < g->tails[s]; i++) {
            if (!(V[i] && D[i]))
                continue;
            if (fills[1] >= ev_cap) {
                fs[0] = s;
                fs[1] = i;
                return 0;
            }
            wb_out[fills[1]++] = L[i];
            hdr[7]++;
        }
        fs[1] = 0;
    }
    reset_eng(g, hdr);
    fs[0] = fs[1] = 0;
    return 1;
}

/* Flood flags of lru_runs rows. */
#define FLOOD_MAC 1
#define FLOOD_VN 2

/* One resumable slice of lru_runs (see there). */
static int64_t runs_tick(Eng *g, int64_t *hdr, const int64_t *mac_first,
                         const int64_t *mac_n, const int64_t *vn_first,
                         const int64_t *vn_n, const uint8_t *dirtyf,
                         const uint8_t *walkf, const uint8_t *floodf,
                         int64_t n_runs, int64_t *wave, int64_t *next,
                         int64_t *rstate, int64_t *row_ends,
                         int64_t *miss_out, int64_t *wb_out, int64_t *pm_out,
                         int64_t *fills, int64_t ev_cap) {
    int64_t pending = hdr[8];
    hdr[8] = NIL;
    if (pending != NIL) {
        if (chain(g, hdr, pending, wb_out, pm_out, fills, ev_cap))
            return 0;
    }
    int64_t r = rstate[0], phase = rstate[1], j = rstate[2];
    for (; r < n_runs; r++, phase = 0, j = 0) {
        int dirty = (int)dirtyf[r];
        int flood = (int)floodf[r];
        if (phase == 0 && (flood & FLOOD_MAC)) {
            if (!flush_tick(g, hdr, rstate + 7, wb_out, fills, ev_cap)) {
                rstate[0] = r;
                rstate[1] = 0;
                rstate[2] = 0;
                return 0;
            }
            phase = 1;
            j = 0;
        }
        if (phase == 0) {
            int64_t cnt = mac_n[r], base = mac_first[r];
            for (; j < cnt; j++) {
                if (fills[0] >= ev_cap || fills[1] >= ev_cap ||
                    fills[2] >= ev_cap) {
                    rstate[0] = r;
                    rstate[1] = 0;
                    rstate[2] = j;
                    return 0;
                }
                int64_t line = base + j * g->line_bytes;
                int64_t v, e;
                if (touch(g, set_of(g, line), line, dirty, &v, &e)) {
                    hdr[5]++;
                    continue;
                }
                hdr[6]++;
                miss_out[fills[0]++] = line;
                if (v != NIL &&
                    chain(g, hdr, v, wb_out, pm_out, fills, ev_cap)) {
                    rstate[0] = r;
                    rstate[1] = 0;
                    rstate[2] = j + 1;
                    return 0;
                }
            }
            phase = 1;
            j = 0;
        }
        if (phase == 1 && (flood & FLOOD_VN)) {
            if (!flush_tick(g, hdr, rstate + 7, wb_out, fills, ev_cap)) {
                rstate[0] = r;
                rstate[1] = 1;
                rstate[2] = 0;
                return 0;
            }
            phase = 2; /* no seeds: the walk is skipped */
        }
        if (phase == 1) {
            int64_t cnt = vn_n[r], base = vn_first[r];
            int collect = (int)walkf[r];
            for (; j < cnt; j++) {
                if (fills[0] >= ev_cap || fills[1] >= ev_cap ||
                    fills[2] >= ev_cap) {
                    rstate[0] = r;
                    rstate[1] = 1;
                    rstate[2] = j;
                    return 0;
                }
                int64_t line = base + j * g->line_bytes;
                int64_t v, e;
                if (touch(g, set_of(g, line), line, dirty, &v, &e)) {
                    hdr[5]++;
                    continue;
                }
                hdr[6]++;
                miss_out[fills[0]++] = line;
                if (collect)
                    wave[rstate[4]++] = line; /* ascending walk seeds */
                if (v != NIL &&
                    chain(g, hdr, v, wb_out, pm_out, fills, ev_cap)) {
                    rstate[0] = r;
                    rstate[1] = 1;
                    rstate[2] = j + 1;
                    return 0;
                }
            }
            phase = 2;
            rstate[3] = rstate[5] = rstate[6] = 0; /* fresh walk cursor */
        }
        /* phase == 2: the walk (resumable via rstate[3..6]). */
        if (walkf[r] && rstate[4] > 0) {
            if (!walk_tick(g, hdr, wave, next, rstate + 3, miss_out,
                           wb_out, pm_out, fills, ev_cap)) {
                rstate[0] = r;
                rstate[1] = 2;
                rstate[2] = 0;
                return 0;
            }
        }
        rstate[3] = rstate[4] = rstate[5] = rstate[6] = 0;
        for (int c = 0; c < 3; c++)
            row_ends[3 * r + c] = rstate[9 + c] + fills[c];
    }
    rstate[0] = n_runs;
    return 1;
}

/* Price a column of fused MAC/VN runs in one call.  Row r probes
 * mac_n[r] consecutive lines from mac_first[r], then vn_n[r] from
 * vn_first[r] (dirty per dirtyf[r]); when walkf[r], the VN range's
 * misses seed the integrity-tree walk that follows the row.  floodf[r]
 * flags floods: FLOOD_MAC replaces the MAC range's probes with a flush,
 * FLOOD_VN the VN range's probes and the walk (the MAC range is probed
 * first).  Once row r is done, row_ends[3r + c] holds the number of
 * events of category c (misses, writebacks, parent misses) emitted
 * since the call began.  `rstate` is the resume cursor, zeroed by the
 * caller before the first call: [0] row, [1] phase (0 MAC range, 1 VN
 * range, 2 walk), [2] index within the range, [3..6] the walk cursor
 * (walk_tick's `ws`; [4] doubles as the seed count while the VN range
 * streams), [7..8] the flush cursor, [9..11] the events emitted by
 * earlier (paused) calls per category.  Returns 1 when every row is
 * priced, 0 when pausing. */
int64_t lru_runs(ENG_ARGS, const int64_t *mac_first, const int64_t *mac_n,
                 const int64_t *vn_first, const int64_t *vn_n,
                 const uint8_t *dirtyf, const uint8_t *walkf,
                 const uint8_t *floodf, int64_t n_runs, int64_t *wave,
                 int64_t *next, int64_t *rstate, int64_t *row_ends,
                 int64_t *miss_out, int64_t *wb_out, int64_t *pm_out,
                 int64_t *fills, int64_t ev_cap) {
    Eng g = make_eng(ENG_VALS);
    int64_t done = runs_tick(&g, hdr, mac_first, mac_n, vn_first, vn_n,
                             dirtyf, walkf, floodf, n_runs, wave, next,
                             rstate, row_ends, miss_out, wb_out, pm_out,
                             fills, ev_cap);
    for (int c = 0; c < 3; c++)
        rstate[9 + c] += fills[c];
    return done;
}

void lru_reset(ENG_ARGS) {
    Eng g = make_eng(ENG_VALS);
    reset_eng(&g, hdr);
}

/* Adopt per-set contents, LRU first: set s holds lines[offsets[s] ..
 * offsets[s+1]).  Trusted to fit (<= set capacity per set). */
void lru_load(ENG_ARGS, const int64_t *lines, const uint8_t *dirty,
              const int64_t *offsets) {
    lru_reset(ENG_VALS);
    Eng g = make_eng(ENG_VALS);
    for (int64_t s = 0; s < g.n_sets; s++) {
        int64_t *L = g.ring_lines + s * g.rsize;
        uint8_t *D = g.ring_dirty + s * g.rsize;
        uint8_t *V = g.ring_valid + s * g.rsize;
        int64_t *keys = g.keys + s * g.tsize;
        int64_t *vals = g.vals + s * g.tsize;
        int64_t pos = 0;
        for (int64_t i = offsets[s]; i < offsets[s + 1]; i++, pos++) {
            L[pos] = lines[i];
            D[pos] = dirty[i];
            V[pos] = 1;
            hinsert(keys, vals, g.tsize, &g.useds[s], lines[i], pos);
        }
        g.tails[s] = pos;
        g.counts[s] = pos;
    }
}

/* Evict everything; writes dirty lines (recency order, set-major) to
 * `out` (room for the set capacity times the set count) and returns how
 * many. */
int64_t lru_flush(ENG_ARGS, int64_t *out) {
    Eng g = make_eng(ENG_VALS);
    int64_t fs[2] = {0, 0}, fills[3] = {0, 0, 0};
    flush_tick(&g, hdr, fs, out, fills, INT64_MAX);
    return fills[1];
}

/* Per-set (line, dirty) contents in recency order, concatenated
 * set-major; set_counts[s] gets set s's resident count.  Returns the
 * total. */
int64_t lru_export(ENG_ARGS, int64_t *out_lines, uint8_t *out_dirty,
                   int64_t *set_counts) {
    Eng g = make_eng(ENG_VALS);
    int64_t k = 0;
    for (int64_t s = 0; s < g.n_sets; s++) {
        int64_t *L = g.ring_lines + s * g.rsize;
        uint8_t *D = g.ring_dirty + s * g.rsize;
        uint8_t *V = g.ring_valid + s * g.rsize;
        int64_t start = k;
        for (int64_t i = g.heads[s]; i < g.tails[s]; i++) {
            if (V[i]) {
                out_lines[k] = L[i];
                out_dirty[k] = D[i];
                k++;
            }
        }
        set_counts[s] = k - start;
    }
    return k;
}

int64_t lru_contains(ENG_ARGS, int64_t line) {
    Eng g = make_eng(ENG_VALS);
    int64_t s = set_of(&g, line);
    return hfind(g.keys + s * g.tsize, g.tsize, line) >= 0;
}
