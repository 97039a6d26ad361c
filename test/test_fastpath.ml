(* Differential guards for the fast connection path.  The product-scanning
   Montgomery kernels and the in-place AES must agree bit for bit — results
   and cost counters — with the CIOS kernels and the byte-copying AES they
   replaced, both kept below as reference models.  The per-query owner
   table must equal the per-frame rmap walk, and the Obs.null timeline's
   allocation must stay linear in the connection count. *)

open Memguard_bignum
open Memguard_crypto
open Memguard_kernel
open Memguard_util
module Phys_mem = Memguard_vmm.Phys_mem
module Scanner = Memguard_scan.Scanner
module Obs = Memguard_obs.Obs

(* ---- reference model: the CIOS Montgomery engine ----

   The schedule the product-scanning kernels replaced, over little-endian
   24-bit limb arrays, with its own word-mul and limb-traffic counters.
   Counter increments follow the same per-kernel formulas; the
   differential below checks that the library charges exactly these. *)
module Ref_mont = struct
  let limb_bits = 24
  let limb_mask = (1 lsl limb_bits) - 1
  let word_muls = ref 0
  let traffic = ref 0

  let limbs ~k x = Array.init k (fun i -> Bn.rem_int (Bn.shift_right x (limb_bits * i)) (1 lsl limb_bits))

  let of_limbs a =
    Array.fold_right (fun l acc -> Bn.add (Bn.shift_left acc limb_bits) (Bn.of_int l)) a Bn.zero

  let ct_mask bit = -(bit land 1)

  let ct_select ~k bit a b dst =
    traffic := !traffic + k;
    let m = ct_mask bit in
    for i = 0 to k - 1 do
      dst.(i) <- (a.(i) land m) lor (b.(i) land lnot m)
    done

  let ct_add ~k a b dst =
    traffic := !traffic + k;
    let carry = ref 0 in
    for i = 0 to k - 1 do
      let s = a.(i) + b.(i) + !carry in
      dst.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    !carry

  let ct_sub ~k a b dst =
    traffic := !traffic + k;
    let borrow = ref 0 in
    for i = 0 to k - 1 do
      let s = a.(i) - b.(i) - !borrow in
      dst.(i) <- s land limb_mask;
      borrow := (s asr limb_bits) land 1
    done;
    !borrow

  let ct_reduce_once ~k ~mm ~hi t off sc soff dst =
    traffic := !traffic + (2 * k);
    let borrow = ref 0 in
    for i = 0 to k - 1 do
      let s = t.(off + i) - mm.(i) - !borrow in
      sc.(soff + i) <- s land limb_mask;
      borrow := (s asr limb_bits) land 1
    done;
    let m = ct_mask (hi lor (1 - !borrow)) in
    for i = 0 to k - 1 do
      dst.(i) <- (sc.(soff + i) land m) lor (t.(off + i) land lnot m)
    done

  let ct_mul ~ka ~kb a b dst =
    traffic := !traffic + (ka * kb);
    Array.fill dst 0 (ka + kb) 0;
    for i = 0 to ka - 1 do
      let carry = ref 0 in
      for j = 0 to kb - 1 do
        let s = dst.(i + j) + (a.(i) * b.(j)) + !carry in
        dst.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      dst.(i + kb) <- !carry
    done

  type ctx = { k : int; n0' : int; mm : int array; r2 : int array; one : int array }

  let create ?(width = 0) m =
    let k = max (Bn.num_limbs m) width in
    let m0 = Bn.rem_int m (1 lsl limb_bits) in
    let x = ref m0 in
    for _ = 1 to 5 do
      x := !x * (2 - (m0 * !x)) land limb_mask
    done;
    { k;
      n0' = (1 lsl limb_bits) - (!x land limb_mask);
      mm = limbs ~k m;
      r2 = limbs ~k (Bn.rem (Bn.shift_left Bn.one (2 * k * limb_bits)) m);
      one = limbs ~k (Bn.rem (Bn.shift_left Bn.one (k * limb_bits)) m)
    }

  (* fixed carry sweep: each row's carry is folded through every cell up
     to w[2k] *)
  let redc_core ~k ~mm ~n0' w =
    for i = 0 to k - 1 do
      let u = w.(i) * n0' land limb_mask in
      let c = ref 0 in
      for j = 0 to k - 1 do
        let s = w.(i + j) + (u * mm.(j)) + !c in
        w.(i + j) <- s land limb_mask;
        c := s lsr limb_bits
      done;
      for idx = i + k to 2 * k do
        let s = w.(idx) + !c in
        w.(idx) <- s land limb_mask;
        c := s lsr limb_bits
      done
    done

  let redc_raw ~k ~mm ~n0' w dst =
    word_muls := !word_muls + (k * (k + 1));
    redc_core ~k ~mm ~n0' w;
    ct_reduce_once ~k ~mm ~hi:w.(2 * k) w k w 0 dst

  (* CIOS: t is 2k+2 limbs *)
  let mul_raw ~k ~mm ~n0' ~t a b dst =
    word_muls := !word_muls + (2 * k * k);
    Array.fill t 0 (k + 2) 0;
    for i = 0 to k - 1 do
      let c = ref 0 in
      for j = 0 to k - 1 do
        let s = t.(j) + (a.(i) * b.(j)) + !c in
        t.(j) <- s land limb_mask;
        c := s lsr limb_bits
      done;
      let s = t.(k) + !c in
      t.(k) <- s land limb_mask;
      t.(k + 1) <- t.(k + 1) + (s lsr limb_bits);
      let u = t.(0) * n0' land limb_mask in
      let c = ref ((t.(0) + (u * mm.(0))) lsr limb_bits) in
      for j = 1 to k - 1 do
        let s = t.(j) + (u * mm.(j)) + !c in
        t.(j - 1) <- s land limb_mask;
        c := s lsr limb_bits
      done;
      let s = t.(k) + !c in
      t.(k - 1) <- s land limb_mask;
      t.(k) <- t.(k + 1) + (s lsr limb_bits);
      t.(k + 1) <- 0
    done;
    ct_reduce_once ~k ~mm ~hi:t.(k) t 0 t (k + 2) dst

  (* full square (off-diagonal once, doubled), then a separate REDC pass;
     t2 is 2k+1 limbs *)
  let sqr_raw ~k ~mm ~n0' ~t2 a dst =
    word_muls := !word_muls + ((k * (k - 1) / 2) + k + (k * k));
    Array.fill t2 0 ((2 * k) + 1) 0;
    for i = 0 to k - 2 do
      let c = ref 0 in
      for j = i + 1 to k - 1 do
        let s = t2.(i + j) + (a.(i) * a.(j)) + !c in
        t2.(i + j) <- s land limb_mask;
        c := s lsr limb_bits
      done;
      t2.(i + k) <- t2.(i + k) + !c
    done;
    let c = ref 0 in
    for idx = 0 to (2 * k) - 1 do
      let s = (2 * t2.(idx)) + !c in
      t2.(idx) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    t2.(2 * k) <- !c;
    let c = ref 0 in
    for i = 0 to k - 1 do
      let s = t2.(2 * i) + (a.(i) * a.(i)) + !c in
      t2.(2 * i) <- s land limb_mask;
      let s2 = t2.((2 * i) + 1) + (s lsr limb_bits) in
      t2.((2 * i) + 1) <- s2 land limb_mask;
      c := s2 lsr limb_bits
    done;
    t2.(2 * k) <- t2.(2 * k) + !c;
    redc_core ~k ~mm ~n0' t2;
    ct_reduce_once ~k ~mm ~hi:t2.(2 * k) t2 k t2 0 dst

  let gather ~k table idx dst =
    traffic := !traffic + (16 * k);
    Array.fill dst 0 k 0;
    for j = 0 to 15 do
      let m = ct_mask (((j lxor idx) - 1) lsr (Sys.int_size - 1)) in
      for i = 0 to k - 1 do
        dst.(i) <- dst.(i) lor (table.(j).(i) land m)
      done
    done

  let mul c a b =
    let t = Array.make ((2 * c.k) + 2) 0 and dst = Array.make c.k 0 in
    mul_raw ~k:c.k ~mm:c.mm ~n0':c.n0' ~t (limbs ~k:c.k a) (limbs ~k:c.k b) dst;
    of_limbs dst

  let pow_raw c ~braw ~exp =
    let k = c.k and mm = c.mm and n0' = c.n0' in
    let t = Array.make ((2 * k) + 2) 0 and t2 = Array.make ((2 * k) + 1) 0 in
    let bm = Array.make k 0 in
    mul_raw ~k ~mm ~n0' ~t braw c.r2 bm;
    let nbits = Bn.bit_length exp in
    let result =
      if nbits <= 2 * limb_bits then begin
        let result = Array.copy c.one in
        for i = nbits - 1 downto 0 do
          sqr_raw ~k ~mm ~n0' ~t2 result result;
          if Bn.test_bit exp i then mul_raw ~k ~mm ~n0' ~t result bm result
        done;
        result
      end
      else begin
        let table = Array.make 16 c.one in
        table.(1) <- bm;
        for j = 2 to 15 do
          let e = Array.make k 0 in
          mul_raw ~k ~mm ~n0' ~t table.(j - 1) bm e;
          table.(j) <- e
        done;
        let elimbs = max k (Bn.num_limbs exp) in
        let emag = limbs ~k:elimbs exp in
        let nibble i = (emag.(4 * i / limb_bits) lsr (4 * i mod limb_bits)) land 0xf in
        let nwin = elimbs * limb_bits / 4 in
        let g = Array.make k 0 and result = Array.make k 0 in
        gather ~k table (nibble (nwin - 1)) result;
        for w = nwin - 2 downto 0 do
          for _ = 1 to 4 do
            sqr_raw ~k ~mm ~n0' ~t2 result result
          done;
          gather ~k table (nibble w) g;
          mul_raw ~k ~mm ~n0' ~t result g result
        done;
        result
      end
    in
    Array.fill t2 0 ((2 * k) + 1) 0;
    Array.blit result 0 t2 0 k;
    let out = Array.make k 0 in
    redc_raw ~k ~mm ~n0' t2 out;
    out

  let pow c ~base ~exp = of_limbs (pow_raw c ~braw:(limbs ~k:c.k base) ~exp)

  (* [Bn.mod_pow]'s route for odd multi-limb moduli *)
  let mod_pow ~base ~exp ~modulus = pow (create modulus) ~base:(Bn.rem base modulus) ~exp

  let reduce_mod c craw =
    let k = c.k in
    let w = Array.make ((2 * k) + 1) 0 in
    Array.blit craw 0 w 0 (2 * k);
    let u = Array.make k 0 in
    redc_raw ~k ~mm:c.mm ~n0':c.n0' w u;
    let t = Array.make ((2 * k) + 2) 0 and d = Array.make k 0 in
    mul_raw ~k ~mm:c.mm ~n0':c.n0' ~t u c.r2 d;
    d

  (* [Bn.Ct.crt_exp]'s constant-shape path *)
  let crt_exp ~p ~q ~dp ~dq ~qinv c =
    let kh = max (Bn.num_limbs p) (Bn.num_limbs q) in
    let cp = create ~width:kh p and cq = create ~width:kh q in
    let craw = limbs ~k:(2 * kh) c in
    let m1 = pow_raw cp ~braw:(reduce_mod cp craw) ~exp:dp in
    let m2 = pow_raw cq ~braw:(reduce_mod cq craw) ~exp:dq in
    let mmp = cp.mm and n0p = cp.n0' in
    let t = Array.make ((2 * kh) + 2) 0 in
    let am1 = Array.make kh 0 and am2 = Array.make kh 0 in
    mul_raw ~k:kh ~mm:mmp ~n0':n0p ~t m1 cp.r2 am1;
    mul_raw ~k:kh ~mm:mmp ~n0':n0p ~t m2 cp.r2 am2;
    let d = Array.make kh 0 in
    let borrow = ct_sub ~k:kh am1 am2 d in
    let e = Array.make kh 0 in
    ignore (ct_add ~k:kh d mmp e : int);
    let dm = Array.make kh 0 in
    ct_select ~k:kh borrow e d dm;
    let qm = Array.make kh 0 in
    mul_raw ~k:kh ~mm:mmp ~n0':n0p ~t (limbs ~k:kh qinv) cp.r2 qm;
    let hm = Array.make kh 0 in
    mul_raw ~k:kh ~mm:mmp ~n0':n0p ~t dm qm hm;
    let w = Array.make ((2 * kh) + 1) 0 in
    Array.blit hm 0 w 0 kh;
    let h = Array.make kh 0 in
    redc_raw ~k:kh ~mm:mmp ~n0':n0p w h;
    let hq = Array.make (2 * kh) 0 in
    ct_mul ~ka:kh ~kb:kh h (limbs ~k:kh q) hq;
    let m2w = Array.make (2 * kh) 0 in
    Array.blit m2 0 m2w 0 kh;
    let res = Array.make (2 * kh) 0 in
    ignore (ct_add ~k:(2 * kh) hq m2w res : int);
    (of_limbs res, of_limbs m1, of_limbs m2, of_limbs h)
end

(* the library's result with its (word_muls, limb_traffic) delta, and the
   reference model's *)
let with_lib_counters f =
  let w0 = Bn.Mont.word_muls () and l0 = Bn.Ct.limb_traffic () in
  let r = f () in
  (r, (Bn.Mont.word_muls () - w0, Bn.Ct.limb_traffic () - l0))

let with_ref_counters f =
  Ref_mont.word_muls := 0;
  Ref_mont.traffic := 0;
  let r = f () in
  (r, (!Ref_mont.word_muls, !Ref_mont.traffic))

let random_below_bits rng bits = Bn.random_bits rng (max 1 bits)

(* a random odd modulus of exactly [limbs] limbs (> 1); half of them fill
   the top limb, where a REDC result can reach R and carry into the high
   limb *)
let random_odd_modulus rng limbs =
  let bits = 24 * limbs in
  let top = Bn.shift_left Bn.one (bits - 1 - if Prng.bool rng then 0 else Prng.int rng 23) in
  let m = Bn.add top (Bn.random_bits rng (Bn.bit_length top - 1)) in
  if Bn.is_even m then Bn.add m Bn.one else m

let prop_mont_differential =
  QCheck.Test.make ~name:"Mont.mul/pow/mod_pow match the CIOS reference" ~count:40
    QCheck.(pair (int_range 2 45) small_nat)
    (fun (limbs, seed) ->
      let rng = Prng.of_int ((seed * 131) + limbs) in
      let m = random_odd_modulus rng limbs in
      let ctx = Option.get (Bn.Mont.create m) in
      let rctx = Ref_mont.create m in
      (* operands at the top of the range push intermediates toward 2m *)
      let operand () = if Prng.bool rng then Bn.sub m (Bn.of_int (1 + Prng.int rng 3)) else Bn.random_below rng m in
      let a = operand () and b = operand () in
      (* short (public-exponent path) and long (windowed) exponents *)
      let short = random_below_bits rng (1 + Prng.int rng 48) in
      let long = random_below_bits rng (49 + Prng.int rng (24 * limbs)) in
      with_lib_counters (fun () -> Bn.Mont.mul ctx a b)
      = with_ref_counters (fun () -> Ref_mont.mul rctx a b)
      && List.for_all
           (fun exp ->
             with_lib_counters (fun () -> Bn.Mont.pow ctx ~base:a ~exp)
             = with_ref_counters (fun () -> Ref_mont.pow rctx ~base:a ~exp)
             && with_lib_counters (fun () -> Bn.mod_pow ~base:b ~exp ~modulus:m)
                = with_ref_counters (fun () -> Ref_mont.mod_pow ~base:b ~exp ~modulus:m))
           [ short; long ])

(* p and q of independent widths, so the halves run padded to the wider *)
let prop_crt_differential =
  QCheck.Test.make ~name:"Ct.crt_exp matches the CIOS reference at padded widths" ~count:30
    QCheck.(triple (int_range 1 22) (int_range 1 22) small_nat)
    (fun (lp, lq, seed) ->
      let rng = Prng.of_int ((seed * 977) + (lp * 23) + lq) in
      let p = random_odd_modulus rng lp and q = random_odd_modulus rng lq in
      let n = Bn.mul p q in
      let c = if Prng.bool rng then Bn.sub n Bn.one else Bn.random_below rng n in
      let dp = random_below_bits rng (Bn.bit_length p) in
      let dq = random_below_bits rng (Bn.bit_length q) in
      let qinv = Bn.random_below rng p in
      with_lib_counters (fun () -> Bn.Ct.crt_exp ~p ~q ~dp ~dq ~qinv c)
      = with_ref_counters (fun () -> Ref_mont.crt_exp ~p ~q ~dp ~dq ~qinv c))

(* p and q just below R = base^kh and c = pq - 1: the reduction of c lands
   in [R, 2p), so its carry into the high limb decides the result *)
let test_crt_near_r () =
  List.iter
    (fun kh ->
      let r = Bn.shift_left Bn.one (24 * kh) in
      let p = Bn.sub r (Bn.of_int 3) and q = Bn.sub r (Bn.of_int 5) in
      let c = Bn.sub (Bn.mul p q) Bn.one in
      let dp = Bn.sub p Bn.two and dq = Bn.sub q Bn.two and qinv = Bn.sub p Bn.one in
      let lib = with_lib_counters (fun () -> Bn.Ct.crt_exp ~p ~q ~dp ~dq ~qinv c) in
      let reference = with_ref_counters (fun () -> Ref_mont.crt_exp ~p ~q ~dp ~dq ~qinv c) in
      if lib <> reference then Alcotest.failf "crt_exp differs from the reference at kh=%d" kh)
    [ 1; 2; 3; 5; 8; 22 ]

(* ---- reference model: the byte-copying AES ----

   Every round copied the state array and ran a closure per byte; CBC
   assembled blocks with String.sub and a Buffer. *)
module Ref_aes = struct
  let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1b) land 0xff else b lsl 1

  let gmul a b =
    let acc = ref 0 in
    let a = ref a and b = ref b in
    for _ = 0 to 7 do
      if !b land 1 <> 0 then acc := !acc lxor !a;
      a := xtime !a;
      b := !b lsr 1
    done;
    !acc land 0xff

  let sbox, inv_sbox =
    let inv = Array.make 256 0 in
    for a = 1 to 255 do
      for b = 1 to 255 do
        if gmul a b = 1 then inv.(a) <- b
      done
    done;
    let s = Array.make 256 0 and si = Array.make 256 0 in
    for x = 0 to 255 do
      let i = inv.(x) in
      let rot v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
      let y = i lxor rot i 1 lxor rot i 2 lxor rot i 3 lxor rot i 4 lxor 0x63 in
      s.(x) <- y;
      si.(y) <- x
    done;
    (s, si)

  let expand_key keystr =
    let w = Array.make 44 0 in
    for i = 0 to 3 do
      w.(i) <-
        (Char.code keystr.[4 * i] lsl 24)
        lor (Char.code keystr.[(4 * i) + 1] lsl 16)
        lor (Char.code keystr.[(4 * i) + 2] lsl 8)
        lor Char.code keystr.[(4 * i) + 3]
    done;
    let sub_word v =
      (sbox.((v lsr 24) land 0xff) lsl 24)
      lor (sbox.((v lsr 16) land 0xff) lsl 16)
      lor (sbox.((v lsr 8) land 0xff) lsl 8)
      lor sbox.(v land 0xff)
    in
    let rot_word v = ((v lsl 8) lor (v lsr 24)) land 0xFFFFFFFF in
    let rcon = ref 1 in
    for i = 4 to 43 do
      let temp = w.(i - 1) in
      let temp =
        if i mod 4 = 0 then begin
          let t = sub_word (rot_word temp) lxor (!rcon lsl 24) in
          rcon := xtime !rcon;
          t
        end
        else temp
      in
      w.(i) <- w.(i - 4) lxor temp
    done;
    Array.init 11 (fun round ->
        Array.init 16 (fun b ->
            let word = w.((round * 4) + (b / 4)) in
            (word lsr (8 * (3 - (b mod 4)))) land 0xff))

  let add_round_key state rk = Array.iteri (fun i v -> state.(i) <- v lxor rk.(i)) (Array.copy state)
  let sub_bytes state = Array.iteri (fun i v -> state.(i) <- sbox.(v)) (Array.copy state)
  let inv_sub_bytes state = Array.iteri (fun i v -> state.(i) <- inv_sbox.(v)) (Array.copy state)

  let shift_rows state =
    let old = Array.copy state in
    for r = 0 to 3 do
      for c = 0 to 3 do
        state.((4 * c) + r) <- old.((4 * ((c + r) mod 4)) + r)
      done
    done

  let inv_shift_rows state =
    let old = Array.copy state in
    for r = 0 to 3 do
      for c = 0 to 3 do
        state.((4 * ((c + r) mod 4)) + r) <- old.((4 * c) + r)
      done
    done

  let mix_columns state =
    for c = 0 to 3 do
      let a0 = state.(4 * c) and a1 = state.((4 * c) + 1) and a2 = state.((4 * c) + 2)
      and a3 = state.((4 * c) + 3) in
      state.(4 * c) <- gmul a0 2 lxor gmul a1 3 lxor a2 lxor a3;
      state.((4 * c) + 1) <- a0 lxor gmul a1 2 lxor gmul a2 3 lxor a3;
      state.((4 * c) + 2) <- a0 lxor a1 lxor gmul a2 2 lxor gmul a3 3;
      state.((4 * c) + 3) <- gmul a0 3 lxor a1 lxor a2 lxor gmul a3 2
    done

  let inv_mix_columns state =
    for c = 0 to 3 do
      let a0 = state.(4 * c) and a1 = state.((4 * c) + 1) and a2 = state.((4 * c) + 2)
      and a3 = state.((4 * c) + 3) in
      state.(4 * c) <- gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9;
      state.((4 * c) + 1) <- gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13;
      state.((4 * c) + 2) <- gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11;
      state.((4 * c) + 3) <- gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14
    done

  let state_of_block block = Array.init 16 (fun i -> Char.code block.[i])
  let block_of_state state = String.init 16 (fun i -> Char.chr state.(i))

  let encrypt_block rk block =
    let state = state_of_block block in
    add_round_key state rk.(0);
    for round = 1 to 9 do
      sub_bytes state;
      shift_rows state;
      mix_columns state;
      add_round_key state rk.(round)
    done;
    sub_bytes state;
    shift_rows state;
    add_round_key state rk.(10);
    block_of_state state

  let decrypt_block rk block =
    let state = state_of_block block in
    add_round_key state rk.(10);
    inv_shift_rows state;
    inv_sub_bytes state;
    for round = 9 downto 1 do
      add_round_key state rk.(round);
      inv_mix_columns state;
      inv_shift_rows state;
      inv_sub_bytes state
    done;
    add_round_key state rk.(0);
    block_of_state state

  let xor_block a b = String.init 16 (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

  let cbc_encrypt ~key ~iv plaintext =
    let rk = expand_key key in
    let pad = 16 - (String.length plaintext mod 16) in
    let padded = plaintext ^ String.make pad (Char.chr pad) in
    let out = Buffer.create (String.length padded) in
    let prev = ref iv in
    for i = 0 to (String.length padded / 16) - 1 do
      let c = encrypt_block rk (xor_block (String.sub padded (16 * i) 16) !prev) in
      Buffer.add_string out c;
      prev := c
    done;
    Buffer.contents out

  let cbc_decrypt ~key ~iv ciphertext =
    let n = String.length ciphertext in
    if n = 0 || n mod 16 <> 0 then Error "ciphertext length not a positive multiple of 16"
    else begin
      let rk = expand_key key in
      let out = Buffer.create n in
      let prev = ref iv in
      for i = 0 to (n / 16) - 1 do
        let c = String.sub ciphertext (16 * i) 16 in
        Buffer.add_string out (xor_block (decrypt_block rk c) !prev);
        prev := c
      done;
      let padded = Buffer.contents out in
      let pad = Char.code padded.[n - 1] in
      if pad < 1 || pad > 16 then Error "bad padding"
      else begin
        let ok = ref true in
        for i = n - pad to n - 1 do
          if Char.code padded.[i] <> pad then ok := false
        done;
        if !ok then Ok (String.sub padded 0 (n - pad)) else Error "bad padding"
      end
    end
end

let bytes_gen n = QCheck.Gen.(string_size ~gen:char (return n))

let prop_aes_differential =
  QCheck.Test.make ~name:"AES block and CBC match the byte-copying reference" ~count:300
    QCheck.(
      make
        Gen.(
          quad (bytes_gen 16) (bytes_gen 16) (int_range 0 100 >>= bytes_gen)
            (int_range 1 7 >>= fun b -> bytes_gen (16 * b))))
    (fun (key, iv, plain, noise) ->
      let rk = Aes.expand_key key and rrk = Ref_aes.expand_key key in
      let block = String.sub (plain ^ iv) 0 16 in
      let ct = Aes.cbc_encrypt ~key ~iv plain in
      Aes.encrypt_block rk block = Ref_aes.encrypt_block rrk block
      && Aes.decrypt_block rk block = Ref_aes.decrypt_block rrk block
      && ct = Ref_aes.cbc_encrypt ~key ~iv plain
      && Aes.cbc_decrypt ~key ~iv ct = Ref_aes.cbc_decrypt ~key ~iv ct
      (* arbitrary ciphertexts reach the bad-padding and bad-length exits *)
      && Aes.cbc_decrypt ~key ~iv noise = Ref_aes.cbc_decrypt ~key ~iv noise
      && Aes.cbc_decrypt ~key ~iv plain = Ref_aes.cbc_decrypt ~key ~iv plain)

(* ---- owner table vs the rmap walk ---- *)

(* build the frame -> pids table the scanners use, for every frame *)
let owner_table k =
  let tbl = Array.make (Phys_mem.num_pages (Kernel.mem k)) [] in
  Kernel.iter_frame_mappings k (fun ~pfn ~pid -> tbl.(pfn) <- Scanner.add_owner tbl.(pfn) ~pid);
  tbl

(* a small machine with swap, driven by random spawn / fork / exit /
   COW-write / allocation-pressure steps *)
let run_kernel_ops ops =
  let k =
    Kernel.create
      ~config:{ Kernel.default_config with num_pages = 64; swap_slots = 128 }
      ()
  in
  let procs = ref [] in
  let allocs = Hashtbl.create 16 in
  let pick i = List.nth !procs (i mod List.length !procs) in
  List.iter
    (fun (op, arg) ->
      try
        match op with
        | 0 ->
          let p = Kernel.spawn k ~name:"p" in
          let a = Kernel.malloc k p (4096 * (1 + (arg mod 3))) in
          Kernel.write_mem k p ~addr:a (String.make 64 'k');
          Hashtbl.replace allocs p.Proc.pid [ a ];
          procs := !procs @ [ p ]
        | 1 when !procs <> [] ->
          let parent = pick arg in
          let c = Kernel.fork k parent in
          Hashtbl.replace allocs c.Proc.pid (Hashtbl.find allocs parent.Proc.pid);
          procs := !procs @ [ c ]
        | 2 when !procs <> [] ->
          let p = pick arg in
          Kernel.exit k p;
          procs := List.filter (fun q -> q != p) !procs
        | 3 when !procs <> [] ->
          (* a write to an inherited page breaks COW *)
          let p = pick arg in
          List.iter
            (fun a -> Kernel.write_mem k p ~addr:a (String.make 8 (Char.chr (65 + (arg mod 26)))))
            (Hashtbl.find allocs p.Proc.pid)
        | 4 when !procs <> [] ->
          (* memory pressure swaps unlocked pages out *)
          let p = pick arg in
          let len = 4096 * (8 + (arg mod 16)) in
          let a = Kernel.malloc k p len in
          Kernel.write_mem k p ~addr:a (String.make len 'x');
          Hashtbl.replace allocs p.Proc.pid (a :: Hashtbl.find allocs p.Proc.pid)
        | _ -> ()
      with Kernel.Out_of_memory -> ())
    ops;
  k

let prop_owner_table =
  QCheck.Test.make ~name:"owner table equals frame_owners for every frame" ~count:150
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 0 4) small_nat))
    (fun ops ->
      let k = run_kernel_ops ops in
      let tbl = owner_table k in
      let ok = ref true in
      Array.iteri (fun pfn owners -> if owners <> Kernel.frame_owners k ~pfn then ok := false) tbl;
      !ok)

(* ---- allocation growth of the simulation itself ---- *)

let null_timeline_words conns =
  let rng = Prng.derive (Prng.of_int 1) ~tag:0 in
  let w0 = Gc.minor_words () in
  let sys =
    Memguard.System.create ~num_pages:2048 ~level:Memguard.Protection.Unprotected ~rng
      ~obs:Obs.null ()
  in
  ignore (Memguard.Timeline.run ~churn:3 ~low:conns ~high:(2 * conns) sys Memguard.Timeline.Ssh);
  Gc.minor_words () -. w0

(* an ssh shard's Obs.null timeline at twice the connections may allocate
   at most 2.3x the words: a per-hit walk of every live page table grew
   it 2.67x *)
let test_null_timeline_linear () =
  let a = null_timeline_words 16 and b = null_timeline_words 32 in
  let ratio = b /. a in
  if ratio > 2.3 then
    Alcotest.failf "Obs.null timeline: %.0f minor words at K=16, %.0f at K=32 — ratio %.2f > 2.3"
      a b ratio

(* ---- subtraction-free windows and the fixed-base comb ----

   When 4m < R (top limb below 2^22) the exponentiation kernels skip their
   conditional subtraction; otherwise they keep it.  Either way results and
   per-call counter deltas must equal the CIOS reference, which always
   subtracts. *)

(* an odd modulus of exactly [limbs] limbs whose top limb is [top] *)
let odd_modulus_with_top rng ~limbs ~top =
  let low = Bn.random_bits rng (24 * (limbs - 1)) in
  let m = Bn.add (Bn.shift_left (Bn.of_int top) (24 * (limbs - 1))) low in
  if Bn.is_even m then Bn.add m Bn.one else m

(* both sides of the 4m < R boundary, and the widest top limb *)
let boundary_tops = [ (1 lsl 22) - 1; 1 lsl 22; (1 lsl 24) - 1 ]

let pick_top rng which =
  if which < List.length boundary_tops then List.nth boundary_tops which
  else 2 + Prng.int rng ((1 lsl 24) - 2)

let prop_schedules_differential =
  QCheck.Test.make ~name:"Mont.pow/mod_pow on both schedules match the CIOS reference" ~count:40
    QCheck.(triple (int_range 2 45) (int_range 0 3) small_nat)
    (fun (limbs, which, seed) ->
      let rng = Prng.of_int ((seed * 7919) + (limbs * 4) + which) in
      let m = odd_modulus_with_top rng ~limbs ~top:(pick_top rng which) in
      let ctx = Option.get (Bn.Mont.create m) in
      let rctx = Ref_mont.create m in
      let operand () =
        if Prng.bool rng then Bn.sub m (Bn.of_int (1 + Prng.int rng 3)) else Bn.random_below rng m
      in
      let a = operand () and b = operand () in
      let all_ones = Bn.sub (Bn.shift_left Bn.one (24 * limbs)) Bn.one in
      List.for_all
        (fun exp ->
          with_lib_counters (fun () -> Bn.Mont.pow ctx ~base:a ~exp)
          = with_ref_counters (fun () -> Ref_mont.pow rctx ~base:a ~exp)
          && with_lib_counters (fun () -> Bn.mod_pow ~base:b ~exp ~modulus:m)
             = with_ref_counters (fun () -> Ref_mont.mod_pow ~base:b ~exp ~modulus:m))
        [ random_below_bits rng (1 + Prng.int rng 48);
          random_below_bits rng (49 + Prng.int rng (24 * limbs));
          all_ones
        ])

let prop_crt_schedules_differential =
  QCheck.Test.make ~name:"Ct.crt_exp on both schedules matches the CIOS reference" ~count:30
    QCheck.(
      pair (pair (int_range 1 22) (int_range 1 22))
        (triple (int_range 0 3) (int_range 0 3) small_nat))
    (fun ((lp, lq), (wp, wq, seed)) ->
      let rng = Prng.of_int ((seed * 1009) + (lp * 97) + (lq * 13) + (wp * 4) + wq) in
      let p = odd_modulus_with_top rng ~limbs:lp ~top:(pick_top rng wp) in
      let q = odd_modulus_with_top rng ~limbs:lq ~top:(pick_top rng wq) in
      let n = Bn.mul p q in
      let c = if Prng.bool rng then Bn.sub n Bn.one else Bn.random_below rng n in
      let dp = random_below_bits rng (Bn.bit_length p) in
      let dq = random_below_bits rng (Bn.bit_length q) in
      let qinv = Bn.random_below rng p in
      with_lib_counters (fun () -> Bn.Ct.crt_exp ~p ~q ~dp ~dq ~qinv c)
      = with_ref_counters (fun () -> Ref_mont.crt_exp ~p ~q ~dp ~dq ~qinv c))

let prop_comb_differential =
  QCheck.Test.make ~name:"fixed-base comb equals mod_pow at a schedule fixed by the width"
    ~count:40
    QCheck.(pair (int_range 0 24) small_nat)
    (fun (sel, seed) ->
      let rng = Prng.of_int ((seed * 389) + sel) in
      let m, g =
        match sel with
        | 0 -> (Dh.group_small.Dh.p, Dh.group_small.Dh.g)
        | 1 -> (Dh.group_medium.Dh.p, Dh.group_medium.Dh.g)
        | limbs ->
          let m = random_odd_modulus rng limbs in
          (m, Bn.random_below rng m)
      in
      let k = Bn.num_limbs m in
      let in_width =
        [ Bn.zero; Bn.one; Bn.random_below rng m; Bn.sub m Bn.one;
          Bn.sub (Bn.shift_left Bn.one (24 * k)) Bn.one ]
      in
      (* wider than the modulus: the windowed fallback *)
      let wider =
        Bn.add (Bn.shift_left Bn.one ((24 * k) + Prng.int rng 48)) (Bn.random_bits rng (24 * k))
      in
      let agrees ~base exp =
        Bn.mod_pow_fixed_base ~base ~exp ~modulus:m = Bn.mod_pow ~base ~exp ~modulus:m
      in
      (* a second base for the same modulus replaces the cached table, and
         a base above m reduces to the first *)
      let h = Bn.random_below rng m in
      List.for_all (agrees ~base:g) (wider :: in_width)
      && List.for_all (agrees ~base:h) in_width
      && List.for_all (agrees ~base:(Bn.add g m)) in_width
      && (* an even modulus takes mod_pow's ladder *)
      Bn.mod_pow_fixed_base ~base:g ~exp:wider ~modulus:(Bn.add m Bn.one)
      = Bn.mod_pow ~base:g ~exp:wider ~modulus:(Bn.add m Bn.one)
      &&
      (* with g's table cached (g + m reduced to g), every in-width
         exponent costs the same counter deltas *)
      let deltas =
        List.map
          (fun exp ->
            snd (with_lib_counters (fun () -> Bn.mod_pow_fixed_base ~base:g ~exp ~modulus:m)))
          in_width
      in
      List.for_all (( = ) (List.hd deltas)) deltas)

(* keypairs drawn from seeded generators, as before the comb *)
let test_dh_keygen_pinned () =
  List.iter
    (fun (grp, seed, secret, public) ->
      let kp = Dh.generate_keypair (Prng.of_int seed) grp in
      Alcotest.(check (pair string string))
        (Printf.sprintf "keypair seed %d" seed) (secret, public)
        (Bn.to_hex kp.Dh.secret, Bn.to_hex kp.Dh.public))
    [ (Dh.group_small, 1, "13dd771dd0d72345c63779eec3267b1d", "985ddc6129de775cbe02460d63f0a703");
      (Dh.group_small, 2, "2cf111adfca09e1eef2ff21184d60d79", "6dd257b8a579864a15bbed196d58a6bd");
      (Dh.group_small, 3, "63b32d84ddaa6c6d9138e0c348a63ad2", "654bd20956c3174790c0404daf1ec664");
      ( Dh.group_medium, 1,
        "771dd0d72345c63779eec3267b1bd342ff6ed5367061a424e8bbbae368428b7d",
        "4ed471a1a4d2009d8c5728521a1714f6ad2481b6afb05c13911c9842dccf8bbc" );
      ( Dh.group_medium, 2,
        "112691428c051e2f4d34eb7c93de2f0f2cf111adfca09e1eef2ff21184d60d79",
        "5e1330d466ba49bc252d875d3399dc76eb34c86c637cbc025a5a54f7a9706e3f" );
      ( Dh.group_medium, 3,
        "2d84ddaa6c6d9138e0c348a63ad0b7ddcdda236ba9d93e3afa29d19be242c53b",
        "27138650038ffbb5b6a95c145219e5a9266d45d4bbc5a11a827f63e42b76267d" )
    ]

(* ---- Integrated's locked-PTE bookkeeping ---- *)

let integrated_timeline_words conns =
  let rng = Prng.derive (Prng.of_int 1) ~tag:0 in
  let w0 = Gc.minor_words () in
  let sys =
    Memguard.System.create ~num_pages:8192 ~level:Memguard.Protection.Integrated ~rng
      ~obs:Obs.null ()
  in
  ignore (Memguard.Timeline.run ~churn:3 ~low:conns ~high:(2 * conns) sys Memguard.Timeline.Ssh);
  Gc.minor_words () -. w0

(* an Integrated ssh shard at twice the connections may allocate at most
   2.3x the words: walking every live page table on each locked COW break
   and locked unmap grew it 2.52x from 64/128 to 128/256 *)
let test_integrated_timeline_linear () =
  let a = integrated_timeline_words 64 and b = integrated_timeline_words 128 in
  let ratio = b /. a in
  if ratio > 2.3 then
    Alcotest.failf
      "Obs.null Integrated timeline: %.0f minor words at 64/128, %.0f at 128/256 (ratio %.2f > 2.3)"
      a b ratio

(* the per-frame locked-PTE count equals a recount after random fork /
   mlock / COW-write / exit sequences *)
let prop_locked_pte_count =
  QCheck.Test.make ~name:"per-frame locked-PTE counts equal a recount" ~count:150
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 0 5) small_nat))
    (fun ops ->
      let k =
        Kernel.create ~config:{ Kernel.default_config with num_pages = 64; swap_slots = 128 } ()
      in
      let procs = ref [] in
      let pick i = List.nth !procs (i mod List.length !procs) in
      List.iter
        (fun (op, arg) ->
          try
            match op with
            | 0 ->
              let p = Kernel.spawn k ~name:"p" in
              let a = Kernel.malloc k p (4096 * (1 + (arg mod 3))) in
              Kernel.write_mem k p ~addr:a (String.make 64 'k');
              procs := !procs @ [ (p, a) ]
            | 1 when !procs <> [] ->
              let p, a = pick arg in
              procs := !procs @ [ (Kernel.fork k p, a) ]
            | 2 when !procs <> [] ->
              let p, _ = pick arg in
              Kernel.exit k p;
              procs := List.filter (fun (q, _) -> q != p) !procs
            | 3 when !procs <> [] ->
              let p, a = pick arg in
              Kernel.write_mem k p ~addr:a (String.make 8 'w')
            | 4 when !procs <> [] ->
              (* locking twice must count the PTE once *)
              let p, a = pick arg in
              Kernel.mlock k p ~addr:a ~len:4096
            | 5 when !procs <> [] ->
              let p, _ = pick arg in
              let a = Kernel.malloc k p (4096 * (8 + (arg mod 16))) in
              Kernel.write_mem k p ~addr:a (String.make 4096 'x')
            | _ -> ()
          with Kernel.Out_of_memory -> ())
        ops;
      Kernel.check_invariants k = Ok ()
      && List.for_all
           (fun pfn ->
             let page = Phys_mem.page (Kernel.mem k) pfn in
             page.Memguard_vmm.Page.locked = (page.Memguard_vmm.Page.locked_ptes > 0))
           (List.init (Phys_mem.num_pages (Kernel.mem k)) Fun.id))

let suite =
  [ ( "fast-path",
      [ QCheck_alcotest.to_alcotest prop_mont_differential;
        QCheck_alcotest.to_alcotest prop_crt_differential;
        Alcotest.test_case "crt_exp near-R moduli match the CIOS reference" `Quick
          test_crt_near_r;
        QCheck_alcotest.to_alcotest prop_aes_differential;
        QCheck_alcotest.to_alcotest prop_owner_table;
        Alcotest.test_case "Obs.null timeline linear in connections" `Quick
          test_null_timeline_linear;
        QCheck_alcotest.to_alcotest prop_schedules_differential;
        QCheck_alcotest.to_alcotest prop_crt_schedules_differential;
        QCheck_alcotest.to_alcotest prop_comb_differential;
        Alcotest.test_case "seeded DH keypairs unchanged" `Quick test_dh_keygen_pinned;
        QCheck_alcotest.to_alcotest prop_locked_pte_count;
        Alcotest.test_case "Obs.null Integrated timeline linear in connections" `Quick
          test_integrated_timeline_linear
      ] )
  ]
