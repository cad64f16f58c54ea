/* Native LRU-engine backend: the semantics of repro.core.lru_engine
 * compiled to machine code.
 *
 * State layout is a tombstone ring: one fully-associative cache whose
 * `ring_lines`/`ring_dirty`/`ring_valid` window [head, tail) holds the
 * residents in recency order (LRU first); a touched line's old slot is
 * tombstoned, and the ring is compacted in place when it fills.  The
 * resident-line -> slot map is an open-addressing hash table (linear
 * probing, tombstone deletion) sized at >= 4x the capacity.
 *
 * All state lives in NumPy arrays owned by the Python wrapper
 * (repro.core.lru_native); this library only mutates them, so the
 * engine needs no allocator.
 *
 * The header array `hdr` (int64) carries configuration, counters and
 * the ring cursors (slots named by the H_* enum below):
 *   [0] capacity  [1] line_bytes  [2] ring_size
 *   [3] table_size (power of two)
 *   [4] hits  [5] miss_count  [6] writeback_count
 *   [7] pending chain victim (NIL when no chain is suspended)
 *   [8] head  [9] tail  [10] resident count  [11] used table slots
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
 * Three entry points: lru_load adopts a cache's contents, lru_export
 * reads them back, and lru_runs prices one `price` call's column of
 * fused MAC/VN runs — per row, the MAC range, the VN range (collecting
 * its misses as walk seeds), then the integrity-tree walk, with every
 * dirty eviction's write-back chain followed in place.  A range flagged
 * as a flood (at least cache-sized) is not probed: the cache is flushed
 * instead, its dirty lines becoming that row's writebacks, and a
 * flooded VN range skips the walk.  After each row the running event
 * counts are stored as that row's end offsets, so every event is
 * attributable to its row.
 *
 * Events go to three caller-owned buffers (misses, writebacks, parent
 * misses).  When one fills, lru_runs pauses — between lines, mid-chain
 * with the pending victim parked in the header, mid-walk or mid-flush —
 * so the wrapper can drain and resume with bounded memory; all cursor
 * state lives in caller-owned arrays, so a paused call resumes exactly
 * where it left off.
 */

#include <stdint.h>

#define NIL (-1)
#define EMPTY (-1)
#define TOMB (-2)

enum {
    H_CAP, H_LINE, H_RING, H_TABLE, H_HITS, H_MISSES, H_WRITEBACKS,
    H_PENDING, H_HEAD, H_TAIL, H_COUNT, H_USED
};

typedef struct {
    int64_t cap, line_bytes, rsize, tsize;
    int64_t hits, misses, writebacks, pending;
    int64_t head, tail, count, used;
    int64_t *L;
    uint8_t *D, *V;
    int64_t *keys, *vals;
    const int64_t *geom;
    /* event buffers (lru_runs only) */
    int64_t *miss_out, *wb_out, *pm_out, *fills;
    int64_t ev_cap;
} Eng;

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

static inline int events_full(const Eng *g) {
    return g->fills[0] >= g->ev_cap || g->fills[1] >= g->ev_cap ||
           g->fills[2] >= g->ev_cap;
}

/* -- hash table: line address -> ring slot ---------------------------- */

static inline int64_t hslot(int64_t key, int64_t mask) {
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    return (int64_t)(h & (uint64_t)mask);
}

static int64_t hfind(const Eng *g, int64_t key) {
    int64_t mask = g->tsize - 1, i = hslot(key, mask);
    for (;;) {
        int64_t k = g->keys[i];
        if (k == key)
            return i;
        if (k == EMPTY)
            return -1;
        i = (i + 1) & mask;
    }
}

/* Insert a key known to be absent (callers look up first). */
static void hinsert(Eng *g, int64_t key, int64_t val) {
    int64_t mask = g->tsize - 1, i = hslot(key, mask);
    for (;;) {
        int64_t k = g->keys[i];
        if (k == EMPTY || k == TOMB) {
            if (k == EMPTY)
                g->used++;
            g->keys[i] = key;
            g->vals[i] = val;
            return;
        }
        i = (i + 1) & mask;
    }
}

static void hdelete(Eng *g, int64_t key) {
    int64_t mask = g->tsize - 1, i = hslot(key, mask);
    for (;;) {
        int64_t k = g->keys[i];
        if (k == key) {
            g->keys[i] = TOMB;
            return;
        }
        if (k == EMPTY)
            return;
        i = (i + 1) & mask;
    }
}

/* Rebuild the table from the ring when tombstones crowd it. */
static void rebuild(Eng *g) {
    for (int64_t i = 0; i < g->tsize; i++)
        g->keys[i] = EMPTY;
    g->used = 0;
    for (int64_t i = g->head; i < g->tail; i++) {
        if (g->V[i])
            hinsert(g, g->L[i], i);
    }
}

/* Squeeze tombstones out of the ring (O(capacity)). */
static void compact(Eng *g) {
    int64_t w = 0;
    for (int64_t i = g->head; i < g->tail; i++) {
        if (g->V[i]) {
            g->L[w] = g->L[i];
            g->D[w] = g->D[i];
            w++;
        }
    }
    for (int64_t i = 0; i < w; i++)
        g->V[i] = 1;
    for (int64_t i = w; i < g->tail; i++)
        g->V[i] = 0;
    g->head = 0;
    g->tail = w;
    for (int64_t i = 0; i < w; i++)
        g->vals[hfind(g, g->L[i])] = i;
}

static void reset_eng(Eng *g) {
    g->head = g->tail = g->count = g->used = 0;
    for (int64_t i = 0; i < g->tsize; i++)
        g->keys[i] = EMPTY;
    for (int64_t i = 0; i < g->rsize; i++)
        g->V[i] = 0;
    g->pending = NIL;
}

/* -- scalar core ------------------------------------------------------ */

/* One MetadataCache.access without chain following.  Returns 1 on hit.
 * On a miss the line is allocated and `*victim` gets the dirty victim
 * line (NIL otherwise). */
static int touch(Eng *g, int64_t line, int dirty, int64_t *victim) {
    int64_t hidx = hfind(g, line);
    if (hidx >= 0) {
        int64_t pos = g->vals[hidx];
        int was_dirty = g->D[pos];
        g->V[pos] = 0;
        if (g->tail + 1 > g->rsize)
            compact(g); /* keys untouched: hidx stays valid */
        int64_t t = g->tail;
        g->L[t] = line;
        g->D[t] = (uint8_t)(dirty | was_dirty);
        g->V[t] = 1;
        g->vals[hidx] = t;
        g->tail = t + 1;
        *victim = NIL;
        return 1;
    }
    int64_t vic = NIL;
    if (g->count >= g->cap) {
        int64_t h = g->head;
        while (!g->V[h])
            h++;
        int64_t vline = g->L[h];
        if (g->D[h])
            vic = vline;
        g->V[h] = 0;
        g->head = h + 1;
        hdelete(g, vline);
        g->count--;
    }
    if ((g->used + 1) * 4 > g->tsize * 3)
        rebuild(g);
    if (g->tail + 1 > g->rsize)
        compact(g);
    int64_t t = g->tail;
    g->L[t] = line;
    g->D[t] = (uint8_t)dirty;
    g->V[t] = 1;
    hinsert(g, line, t);
    g->tail = t + 1;
    g->count++;
    *victim = vic;
    return 0;
}

/* Write back `victim` and update its ancestors, as
 * MetadataCache._follow_chain does.
 * Returns 1 when pausing for full event buffers (victim parked in
 * `pending`), 0 when the chain ran to completion. */
static int chain(Eng *g, int64_t victim) {
    for (;;) {
        if (g->fills[1] >= g->ev_cap || g->fills[2] >= g->ev_cap) {
            g->pending = victim;
            return 1;
        }
        g->wb_out[g->fills[1]++] = victim;
        g->writebacks++;
        int64_t parent = parent_of(g, victim);
        if (parent == NIL)
            return 0;
        int64_t v;
        if (touch(g, parent, 1, &v)) {
            g->hits++;
            return 0;
        }
        g->misses++;
        g->pm_out[g->fills[2]++] = parent;
        if (v == NIL)
            return 0;
        victim = v;
    }
}

/* Probe `n` consecutive lines from `base` in order, from index
 * `*cursor`, chains followed in place; when `seeds` is given, each miss
 * is also appended at seeds[(*n_seeds)++] (ascending walk seeds).
 * Returns 1 when the span is done, 0 when pausing for full event
 * buffers with `*cursor` at the first line still to probe. */
static int probe_span(Eng *g, int64_t base, int64_t n, int dirty,
                      int64_t *cursor, int64_t *seeds, int64_t *n_seeds) {
    for (int64_t j = *cursor; j < n; j++) {
        if (events_full(g)) {
            *cursor = j;
            return 0;
        }
        int64_t line = base + j * g->line_bytes;
        int64_t v;
        if (touch(g, line, dirty, &v)) {
            g->hits++;
            continue;
        }
        g->misses++;
        g->miss_out[g->fills[0]++] = line;
        if (seeds)
            seeds[(*n_seeds)++] = line;
        if (v != NIL && chain(g, v)) {
            *cursor = j + 1;
            return 0;
        }
    }
    return 1;
}

/* One step of the whole-tree walk.
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
 * mid-chain victim parks in `pending` as usual). */
static int walk_tick(Eng *g, int64_t *wave, int64_t *next, int64_t *ws) {
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
            if (events_full(g))
                goto pause;
            int64_t line = wave[i++];
            int64_t v;
            if (touch(g, line, 0, &v)) {
                g->hits++;
                continue;
            }
            g->misses++;
            g->miss_out[g->fills[0]++] = line;
            int64_t p = parent_of(g, line);
            if (p != NIL && (nn == 0 || next[nn - 1] != p))
                next[nn++] = p;
            if (v != NIL && chain(g, v))
                goto pause;
        }
        if (nn == 0)
            return 1;
        for (int64_t k = 0; k < nn; k++)
            wave[k] = next[k];
        wn = nn;
        nn = 0;
        i = 0;
    }
pause:
    ws[0] = i;
    ws[1] = wn;
    ws[2] = nn;
    return 0;
}

/* Resumable flush: append every dirty line (recency order) to `wb_out`
 * as a writeback, then evict everything.  `*cursor` is the ring slot to
 * resume at.  Nothing mutates the cache until the scan completes, so a
 * pause for a full writeback buffer resumes at the saved slot.  Returns
 * 1 when done, 0 when pausing. */
static int flush_tick(Eng *g, int64_t *cursor) {
    if (g->count == 0)
        return 1; /* nothing was inserted since the last reset */
    for (int64_t i = *cursor > g->head ? *cursor : g->head; i < g->tail;
         i++) {
        if (!(g->V[i] && g->D[i]))
            continue;
        if (g->fills[1] >= g->ev_cap) {
            *cursor = i;
            return 0;
        }
        g->wb_out[g->fills[1]++] = g->L[i];
        g->writebacks++;
    }
    reset_eng(g);
    *cursor = 0;
    return 1;
}

/* Flood flags of lru_runs rows. */
#define FLOOD_MAC 1
#define FLOOD_VN 2

/* One resumable slice of lru_runs (see there). */
static int runs_tick(Eng *g, const int64_t *mac_first, const int64_t *mac_n,
                     const int64_t *vn_first, const int64_t *vn_n,
                     const uint8_t *dirtyf, const uint8_t *walkf,
                     const uint8_t *floodf, int64_t n_runs, int64_t *wave,
                     int64_t *next, int64_t *rstate, int64_t *row_ends) {
    int64_t pending = g->pending;
    g->pending = NIL;
    if (pending != NIL && chain(g, pending))
        return 0;
    for (int64_t r = rstate[0]; r < n_runs; r++) {
        rstate[0] = r;
        int dirty = (int)dirtyf[r];
        int flood = (int)floodf[r];
        if (rstate[1] == 0) {
            if (flood & FLOOD_MAC ? !flush_tick(g, rstate + 7)
                                  : !probe_span(g, mac_first[r], mac_n[r],
                                                dirty, rstate + 2, 0, 0))
                return 0;
            rstate[1] = 1;
            rstate[2] = 0;
        }
        if (rstate[1] == 1) {
            /* A flooded VN range collects no seeds: the walk is skipped. */
            if (flood & FLOOD_VN ? !flush_tick(g, rstate + 7)
                                 : !probe_span(g, vn_first[r], vn_n[r], dirty,
                                               rstate + 2,
                                               walkf[r] ? wave : 0,
                                               rstate + 4))
                return 0;
            rstate[1] = 2;
            rstate[2] = 0;
            rstate[3] = rstate[5] = rstate[6] = 0; /* fresh walk cursor */
        }
        if (rstate[4] > 0 && !walk_tick(g, wave, next, rstate + 3))
            return 0;
        rstate[1] = 0;
        rstate[3] = rstate[4] = rstate[5] = rstate[6] = 0;
        for (int c = 0; c < 3; c++)
            row_ends[3 * r + c] = rstate[8 + c] + g->fills[c];
    }
    rstate[0] = n_runs;
    return 1;
}

static Eng make_eng(int64_t *hdr, int64_t *ring_lines, uint8_t *ring_dirty,
                    uint8_t *ring_valid, int64_t *keys, int64_t *vals,
                    const int64_t *geom) {
    Eng g = {0};
    g.cap = hdr[H_CAP];
    g.line_bytes = hdr[H_LINE];
    g.rsize = hdr[H_RING];
    g.tsize = hdr[H_TABLE];
    g.hits = hdr[H_HITS];
    g.misses = hdr[H_MISSES];
    g.writebacks = hdr[H_WRITEBACKS];
    g.pending = hdr[H_PENDING];
    g.head = hdr[H_HEAD];
    g.tail = hdr[H_TAIL];
    g.count = hdr[H_COUNT];
    g.used = hdr[H_USED];
    g.L = ring_lines;
    g.D = ring_dirty;
    g.V = ring_valid;
    g.keys = keys;
    g.vals = vals;
    g.geom = (geom && geom[0] > 0) ? geom : 0;
    return g;
}

static void store_eng(const Eng *g, int64_t *hdr) {
    hdr[H_HITS] = g->hits;
    hdr[H_MISSES] = g->misses;
    hdr[H_WRITEBACKS] = g->writebacks;
    hdr[H_PENDING] = g->pending;
    hdr[H_HEAD] = g->head;
    hdr[H_TAIL] = g->tail;
    hdr[H_COUNT] = g->count;
    hdr[H_USED] = g->used;
}

#define ENG_ARGS                                                              \
    int64_t *hdr, int64_t *ring_lines, uint8_t *ring_dirty,                   \
        uint8_t *ring_valid, int64_t *keys, int64_t *vals,                    \
        const int64_t *geom
#define ENG_VALS hdr, ring_lines, ring_dirty, ring_valid, keys, vals, geom

/* -- entry points ----------------------------------------------------- */

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
 * streams), [7] the flush cursor, [8..10] the events emitted by earlier
 * (paused) calls per category.  `wave` and `next` each hold at least
 * the largest walked VN range.  Returns 1 when every row is priced, 0
 * when pausing. */
int64_t lru_runs(ENG_ARGS, const int64_t *mac_first, const int64_t *mac_n,
                 const int64_t *vn_first, const int64_t *vn_n,
                 const uint8_t *dirtyf, const uint8_t *walkf,
                 const uint8_t *floodf, int64_t n_runs, int64_t *wave,
                 int64_t *next, int64_t *rstate, int64_t *row_ends,
                 int64_t *miss_out, int64_t *wb_out, int64_t *pm_out,
                 int64_t *fills, int64_t ev_cap) {
    Eng g = make_eng(ENG_VALS);
    g.miss_out = miss_out;
    g.wb_out = wb_out;
    g.pm_out = pm_out;
    g.fills = fills;
    g.ev_cap = ev_cap;
    int64_t done = runs_tick(&g, mac_first, mac_n, vn_first, vn_n, dirtyf,
                             walkf, floodf, n_runs, wave, next, rstate,
                             row_ends);
    store_eng(&g, hdr);
    for (int c = 0; c < 3; c++)
        rstate[8 + c] += fills[c];
    return done;
}

/* Adopt a cache's contents, LRU first: `n` lines with their dirty
 * flags.  Trusted to fit (n <= capacity; the wrapper checks). */
void lru_load(ENG_ARGS, const int64_t *lines, const uint8_t *dirty,
              int64_t n) {
    Eng g = make_eng(ENG_VALS);
    reset_eng(&g);
    for (int64_t i = 0; i < n; i++) {
        g.L[i] = lines[i];
        g.D[i] = dirty[i];
        g.V[i] = 1;
        hinsert(&g, lines[i], i);
    }
    g.tail = g.count = n;
    store_eng(&g, hdr);
}

/* The (line, dirty) contents in recency order (room for the capacity);
 * returns how many. */
int64_t lru_export(ENG_ARGS, int64_t *out_lines, uint8_t *out_dirty) {
    Eng g = make_eng(ENG_VALS);
    int64_t k = 0;
    for (int64_t i = g.head; i < g.tail; i++) {
        if (g.V[i]) {
            out_lines[k] = g.L[i];
            out_dirty[k] = g.D[i];
            k++;
        }
    }
    return k;
}
