/* Fast-path cache hierarchy kernel.
 *
 * An exact port of the pure-Python reference loop in
 * repro/cachesim/hierarchy.py (simulate_trace_reference): a three-level
 * set-associative hierarchy with registry-dispatched replacement plus
 * the last-writer snoop directory (an ordered dict with capacity
 * eviction).  Counter-for-counter equivalence with the reference is
 * enforced by tests/cachesim/test_fast_engine.py,
 * tests/cachesim/test_dense_directory.py,
 * tests/cachesim/test_way_lists.py (both loop instantiations below),
 * tests/engines/test_differential.py and
 * benchmarks/test_engine_equivalence.py; any behavioural change here
 * must keep that property (or change both implementations together).
 *
 * Replacement policies mirror repro/cachesim/policies.py row for row:
 * POLICY_TABLE is indexed by the registry's integer code and carries
 * the per-class (hot/cold) promotion + insert-position flags and the
 * hot-line eviction-protection flag.  The hot-block classification is
 * installed once via repro_sim_set_hot as a sorted id list, expanded into
 * one flag byte per block id beside the directory map (allocated only
 * while a hot set is installed, grown with the map): hotness is a pure
 * function of the block ID.
 *
 * Compiled on demand by repro/cachesim/fast.py with the system C compiler
 * into a shared library and driven through ctypes over a MemoryTrace's
 * arrays (uint32 blocks, uint8 write flags, uint8 cores):
 *
 *   handle = repro_sim_create(...geometry..., policy)
 *   repro_sim_set_hot(handle, blocks, n)                         // optional
 *   repro_sim_step(handle, blocks, writes, cores, n, accesses)   // chunked
 *   repro_sim_counters(handle, out[8])
 *   repro_sim_destroy(handle)
 *
 * `accesses` is the chunk's share of the trace's access total: runs
 * merge repeat accesses, which are L1 hits by construction and only
 * count.
 *
 * Way lists.  A set is `ways` uint32 tags.  Its live lines sit at the
 * top, in the Python list's order: LRU first, MRU in slot ways-1.  The
 * slots below them hold EMPTY (0xFFFFFFFF), a block id the trace side
 * never emits (AddressSpace stops below it; repro_sim_step rejects a
 * chunk that holds it with -2).  So there is no length array: a lookup
 * compares all `ways` slots; an MRU fill (LRU/FIFO fills, GRASP hot
 * fills, the snoop force-insert) shifts the slots above the victim down
 * one and writes slot ways-1, which evicts slot 0 when the set is full
 * and drops an EMPTY slot when it is not; LRU-end fills and GRASP's
 * protected victim scan test fullness as slot 0 != EMPTY.  The level ops
 * take `ways` as an argument and are always inlined into one loop body,
 * sim_run, which repro_sim_step instantiates twice: with literal 2/4/8
 * when the hierarchy has those associativities (DEFAULT_HIERARCHY, every
 * scaling of it and every serve size override), so the scans and shifts
 * become fixed-length straight-line code, and with the runtime
 * associativities otherwise.  The sets hold a few entries, so they
 * shift with plain loops; the file asks gcc not to turn those back into
 * libc memmove calls.
 *
 * The directory mirrors OrderedDict: insertion/move_to_end order,
 * popitem(last=False) evicts the head.  It is dense: an int32 entry
 * index per block id (-1: clean), grown by each step to cover the
 * chunk's largest block — 4 bytes per 64-byte block of traced address
 * space — with the entries on a recency list.
 */

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("no-tree-loop-distribute-patterns")
#endif

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One row of the policy-dispatch table; mirrors
 * repro.cachesim.policies.ReplacementPolicy flag for flag. */
typedef struct {
    int promote_hot, promote_cold;       /* hit moves line to MRU */
    int insert_mru_hot, insert_mru_cold; /* fill position (else LRU end) */
    int protect_hot;                     /* eviction skips hot lines */
} PolicySpec;

static const PolicySpec POLICY_TABLE[] = {
    {1, 1, 1, 1, 0}, /* 0: lru   */
    {0, 0, 1, 1, 0}, /* 1: fifo  */
    {1, 1, 0, 0, 0}, /* 2: lip   */
    {1, 1, 1, 0, 1}, /* 3: grasp */
};
#define NUM_POLICIES ((int32_t)(sizeof(POLICY_TABLE) / sizeof(POLICY_TABLE[0])))

/* Cores are uint8: the socket of each possible core is precomputed. */
#define NUM_CORE_IDS 256

/* The tag of an unused way slot.  Block id 2**32-1 is reserved for it:
 * AddressSpace never emits it and repro_sim_step rejects a chunk that
 * holds it, so a lookup can compare every slot against the block. */
#define EMPTY 0xFFFFFFFFu

/* The level ops take the associativity as an argument and are always
 * inlined, so a call site that passes a literal gets loops of constant
 * trip count (see sim_run). */
#if defined(__GNUC__)
#define ALWAYS_INLINE static inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE static inline
#endif

typedef struct {
    uint32_t *tags; /* num_sets * ways: EMPTY slots, then live lines LRU..MRU */
    int64_t mask;   /* num_sets - 1 */
    int32_t ways;
} Level;

typedef struct {
    uint32_t key;
    int32_t core;
    int32_t prev, next; /* recency list when live; next doubles as freelist */
} DirEntry;

typedef struct {
    Level l1, l2, l3;
    int64_t socket[NUM_CORE_IDS]; /* floor(core / cores_per_socket) */
    int64_t ownership_cap;
    PolicySpec pol;      /* POLICY_TABLE row for this instance */
    int64_t *hot_blocks; /* sorted hot-block IDs (skew-aware policies) */
    int64_t hot_n;
    uint8_t *hot;        /* hot flag per block id below slot_n; NULL: none */

    /* last-writer directory: dense block -> entry map + recency list */
    int32_t *slot;  /* entry index per block id, -1 when clean */
    int64_t slot_n; /* block ids covered */
    DirEntry *entries;
    int32_t entries_cap;
    int32_t free_head;
    int32_t head, tail;
    int64_t dir_size;

    int64_t accesses, l1_miss, l2_miss, l3_miss;
    int64_t l3_hit, snoop_local, snoop_remote, offchip;
} Sim;

static int64_t floor_div(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

/* ---------------------------------------------------------------- levels */

static int level_init(Level *L, int64_t num_sets, int64_t ways) {
    size_t slots = (size_t)(num_sets * ways);
    L->mask = num_sets - 1;
    L->ways = (int32_t)ways;
    L->tags = (uint32_t *)malloc(slots * sizeof(uint32_t));
    if (!L->tags)
        return -1;
    memset(L->tags, 0xFF, slots * sizeof(uint32_t)); /* every slot EMPTY */
    return 0;
}

static void level_free(Level *L) { free(L->tags); }

ALWAYS_INLINE uint32_t *level_set(const Level *L, int32_t ways, uint32_t b) {
    return L->tags + (b & L->mask) * ways;
}

/* Slot of b in the set, or -1. */
ALWAYS_INLINE int32_t way_find(const uint32_t *w, int32_t ways, uint32_t b) {
    for (int32_t j = 0; j < ways; j++)
        if (w[j] == b)
            return j;
    return -1;
}

/* Drop slot `from`, shift the slots above it down one and write b to the
 * MRU slot.  From slot 0 of a full set this evicts the LRU line; of a
 * set that is not full it drops an EMPTY slot. */
ALWAYS_INLINE void way_to_mru(uint32_t *w, int32_t ways, int32_t from,
                              uint32_t b) {
    for (int32_t j = from; j < ways - 1; j++)
        w[j] = w[j + 1];
    w[ways - 1] = b;
}

/* Lookup (and promote on hit when the policy promotes); 1 on hit. */
ALWAYS_INLINE int level_access(Level *L, int32_t ways, uint32_t b,
                               int promote) {
    uint32_t *w = level_set(L, ways, b);
    int32_t j = way_find(w, ways, b);
    if (j < 0)
        return 0;
    if (promote)
        way_to_mru(w, ways, j, b);
    return 1;
}

/* Whether a block is classified hot: one load from the flag array. */
ALWAYS_INLINE int sim_is_hot(const Sim *s, uint32_t b) {
    return s->hot != NULL && s->hot[b];
}

/* Fill after a miss.  A full set (slot 0 live) loses its slot-0 line,
 * except under a protecting policy, which evicts the first *cold* line
 * and only falls back to slot 0 when the whole set is hot.  An MRU fill
 * is one shift from the victim; an LRU-end fill writes slot 0 after
 * shifting up the lines below the victim, or, when the set is not full,
 * the highest EMPTY slot. */
ALWAYS_INLINE void level_insert(const Sim *s, Level *L, int32_t ways,
                                uint32_t b, int insert_mru) {
    uint32_t *w = level_set(L, ways, b);
    int full = w[0] != EMPTY;
    int32_t victim = 0;
    if (s->pol.protect_hot && full) {
        for (int32_t j = 0; j < ways; j++) {
            if (!sim_is_hot(s, w[j])) {
                victim = j;
                break;
            }
        }
    }
    if (insert_mru) {
        way_to_mru(w, ways, victim, b);
    } else if (full) {
        for (int32_t j = victim; j > 0; j--)
            w[j] = w[j - 1];
        w[0] = b;
    } else {
        int32_t j = ways - 1;
        while (w[j] != EMPTY)
            j--;
        w[j] = b;
    }
}

/* Snoop-path fill: MRU fill when absent, no promotion when present. */
ALWAYS_INLINE void level_force_insert(Level *L, int32_t ways, uint32_t b) {
    uint32_t *w = level_set(L, ways, b);
    if (way_find(w, ways, b) < 0)
        way_to_mru(w, ways, 0, b);
}

/* ------------------------------------------------------------- directory */

/* Set the hot flag of every hot id in [lo, hi). */
static void hot_mark(Sim *s, int64_t lo, int64_t hi) {
    int64_t a = 0, b = s->hot_n;
    while (a < b) {
        int64_t mid = (a + b) >> 1;
        if (s->hot_blocks[mid] < lo)
            a = mid + 1;
        else
            b = mid;
    }
    for (; a < s->hot_n && s->hot_blocks[a] < hi; a++)
        s->hot[s->hot_blocks[a]] = 1;
}

/* Grow the block map, and the hot flags when a hot set is installed, to
 * cover every block id of a chunk, and no further: every slot is written
 * (-1), so spare capacity would be resident memory.  A streamed trace
 * raises its top block a little per chunk; glibc grows large blocks by
 * mremap, so exact growth costs no copy.  0 on success, -1 on OOM, -2 when the
 * chunk holds the reserved EMPTY id. */
static int32_t dir_cover(Sim *s, const uint32_t *blocks, int64_t n) {
    uint32_t top = 0;
    for (int64_t i = 0; i < n; i++)
        top = blocks[i] > top ? blocks[i] : top;
    if (top == EMPTY)
        return -2;
    int64_t need = (int64_t)top + 1;
    if (need <= s->slot_n)
        return 0;
    int64_t cap = need;
    int32_t *grown = (int32_t *)realloc(s->slot, (size_t)cap * sizeof(int32_t));
    if (!grown)
        return -1;
    s->slot = grown;
    if (s->hot) {
        uint8_t *flags = (uint8_t *)realloc(s->hot, (size_t)cap);
        if (!flags)
            return -1;
        s->hot = flags;
        memset(flags + s->slot_n, 0, (size_t)(cap - s->slot_n));
        hot_mark(s, s->slot_n, cap);
    }
    for (int64_t i = s->slot_n; i < cap; i++)
        grown[i] = -1;
    s->slot_n = cap;
    return 0;
}

static int32_t dir_alloc_entry(Sim *s) {
    if (s->free_head < 0) {
        int32_t cap = s->entries_cap;
        int32_t new_cap = cap << 1;
        DirEntry *grown =
            (DirEntry *)realloc(s->entries, (size_t)new_cap * sizeof(DirEntry));
        if (!grown)
            return -1;
        s->entries = grown;
        for (int32_t i = cap; i < new_cap; i++)
            grown[i].next = (i + 1 < new_cap) ? i + 1 : -1;
        s->free_head = cap;
        s->entries_cap = new_cap;
    }
    int32_t e = s->free_head;
    s->free_head = s->entries[e].next;
    return e;
}

static void list_unlink(Sim *s, int32_t e) {
    DirEntry *E = s->entries;
    if (E[e].prev >= 0)
        E[E[e].prev].next = E[e].next;
    else
        s->head = E[e].next;
    if (E[e].next >= 0)
        E[E[e].next].prev = E[e].prev;
    else
        s->tail = E[e].prev;
}

static void list_append(Sim *s, int32_t e) {
    DirEntry *E = s->entries;
    E[e].prev = s->tail;
    E[e].next = -1;
    if (s->tail >= 0)
        E[s->tail].next = e;
    else
        s->head = e;
    s->tail = e;
}

/* last_writer[key] = core on a live entry, plus move_to_end. */
static void dir_rewrite(Sim *s, int32_t e, int32_t core) {
    s->entries[e].core = core;
    if (e != s->tail) {
        list_unlink(s, e);
        list_append(s, e);
    }
}

/* del last_writer[entry's key]. */
static void dir_remove(Sim *s, int32_t e) {
    s->slot[s->entries[e].key] = -1;
    list_unlink(s, e);
    s->entries[e].next = s->free_head;
    s->free_head = e;
    s->dir_size--;
}

/* The directory side of one run, shared by both step variants; it never
 * reads cache-level state.  Returns 1 when the line is dirty in another
 * core's private cache (the run takes the forced-snoop path, whose
 * counters are settled here), 0 when the run goes through the levels,
 * -1 on OOM. */
static inline int dir_step(Sim *s, uint32_t b, int32_t core, int is_write) {
    int32_t e = s->slot[b];
    if (e >= 0 && s->entries[e].core != core) {
        s->l1_miss++;
        s->l2_miss++;
        if (s->socket[s->entries[e].core] == s->socket[core])
            s->snoop_local++;
        else
            s->snoop_remote++;
        if (is_write)
            dir_rewrite(s, e, core);
        else
            dir_remove(s, e); /* downgraded to shared */
        return 1;
    }
    if (!is_write)
        return 0;
    if (e >= 0) {
        dir_rewrite(s, e, core);
        return 0;
    }
    e = dir_alloc_entry(s);
    if (e < 0)
        return -1;
    s->entries[e].key = b;
    s->entries[e].core = core;
    list_append(s, e);
    s->slot[b] = e;
    if (++s->dir_size > s->ownership_cap) {
        /* Oldest dirty line is written back; ownership expires. */
        dir_remove(s, s->head);
    }
    return 0;
}

/* --------------------------------------------------------------- public */

void *repro_sim_create(int64_t l1_sets, int64_t l1_ways, int64_t l2_sets,
                       int64_t l2_ways, int64_t l3_sets, int64_t l3_ways,
                       int64_t cores_per_socket, int64_t ownership_cap,
                       int32_t policy) {
    if (policy < 0 || policy >= NUM_POLICIES || cores_per_socket == 0)
        return NULL;
    Sim *s = (Sim *)calloc(1, sizeof(Sim));
    if (!s)
        return NULL;
    if (level_init(&s->l1, l1_sets, l1_ways) != 0 ||
        level_init(&s->l2, l2_sets, l2_ways) != 0 ||
        level_init(&s->l3, l3_sets, l3_ways) != 0)
        goto fail;
    for (int64_t c = 0; c < NUM_CORE_IDS; c++)
        s->socket[c] = floor_div(c, cores_per_socket);
    s->ownership_cap = ownership_cap;
    s->pol = POLICY_TABLE[policy];
    s->entries_cap = 128;
    s->entries = (DirEntry *)malloc((size_t)s->entries_cap * sizeof(DirEntry));
    if (!s->entries)
        goto fail;
    for (int32_t i = 0; i < s->entries_cap; i++)
        s->entries[i].next = (i + 1 < s->entries_cap) ? i + 1 : -1;
    s->free_head = 0;
    s->head = s->tail = -1;
    return s;
fail:
    level_free(&s->l1);
    level_free(&s->l2);
    level_free(&s->l3);
    free(s->entries);
    free(s);
    return NULL;
}

/* Install the sorted hot-block classification (replacing any previous
 * one; n == 0 clears it) and its flag array over the covered block ids.
 * Must be called between steps, never during one.  Returns 0 on
 * success, -1 on OOM. */
int32_t repro_sim_set_hot(void *handle, const int64_t *blocks, int64_t n) {
    Sim *s = (Sim *)handle;
    int64_t *copy = NULL;
    uint8_t *flags = NULL;
    if (n > 0) {
        copy = (int64_t *)malloc((size_t)n * sizeof(int64_t));
        flags = (uint8_t *)calloc(s->slot_n > 0 ? (size_t)s->slot_n : 1, 1);
        if (!copy || !flags) {
            free(copy);
            free(flags);
            return -1;
        }
        memcpy(copy, blocks, (size_t)n * sizeof(int64_t));
    }
    free(s->hot_blocks);
    free(s->hot);
    s->hot_blocks = copy;
    s->hot_n = n > 0 ? n : 0;
    s->hot = flags;
    if (flags)
        hot_mark(s, 0, s->slot_n);
    return 0;
}

/* The per-run loop, shared by both instantiations in repro_sim_step. */
ALWAYS_INLINE int32_t sim_run(Sim *s, const uint32_t *blocks,
                              const uint8_t *writes, const uint8_t *cores,
                              int64_t n, int32_t w1, int32_t w2, int32_t w3) {
    for (int64_t i = 0; i < n; i++) {
        uint32_t b = blocks[i];
        int snoop = dir_step(s, b, cores[i], writes[i]);
        if (snoop) {
            if (snoop < 0)
                return -1;
            level_force_insert(&s->l1, w1, b);
            level_force_insert(&s->l2, w2, b);
            continue;
        }
        int hot = sim_is_hot(s, b);
        int promote = hot ? s->pol.promote_hot : s->pol.promote_cold;
        int insert_mru = hot ? s->pol.insert_mru_hot : s->pol.insert_mru_cold;
        if (!level_access(&s->l1, w1, b, promote)) {
            s->l1_miss++;
            if (!level_access(&s->l2, w2, b, promote)) {
                s->l2_miss++;
                if (level_access(&s->l3, w3, b, promote)) {
                    s->l3_hit++;
                } else {
                    s->l3_miss++;
                    s->offchip++;
                    level_insert(s, &s->l3, w3, b, insert_mru);
                }
                level_insert(s, &s->l2, w2, b, insert_mru);
            }
            level_insert(s, &s->l1, w1, b, insert_mru);
        }
    }
    return 0;
}

/* Returns 0, -1 on OOM, -2 when the chunk holds the reserved EMPTY id. */
int32_t repro_sim_step(void *handle, const uint32_t *blocks,
                       const uint8_t *writes, const uint8_t *cores, int64_t n,
                       int64_t accesses) {
    Sim *s = (Sim *)handle;
    int32_t rc = dir_cover(s, blocks, n);
    if (rc != 0)
        return rc;
    s->accesses += accesses;
    /* The 2/4/8-way hierarchy of DEFAULT_HIERARCHY and all its scalings
     * gets a copy of the loop with the associativities folded in. */
    if (s->l1.ways == 2 && s->l2.ways == 4 && s->l3.ways == 8)
        return sim_run(s, blocks, writes, cores, n, 2, 4, 8);
    return sim_run(s, blocks, writes, cores, n, s->l1.ways, s->l2.ways,
                   s->l3.ways);
}

void repro_sim_counters(void *handle, int64_t *out) {
    const Sim *s = (const Sim *)handle;
    out[0] = s->accesses;
    out[1] = s->l1_miss;
    out[2] = s->l2_miss;
    out[3] = s->l3_miss;
    out[4] = s->l3_hit;
    out[5] = s->snoop_local;
    out[6] = s->snoop_remote;
    out[7] = s->offchip;
}

void repro_sim_destroy(void *handle) {
    Sim *s = (Sim *)handle;
    if (!s)
        return;
    level_free(&s->l1);
    level_free(&s->l2);
    level_free(&s->l3);
    free(s->hot_blocks);
    free(s->hot);
    free(s->entries);
    free(s->slot);
    free(s);
}
