(* AES-128, byte-oriented (FIPS 197).  The only tables are the S-boxes,
   generated at module init from the GF(2^8) inverse, and the MixColumns
   multiplication tables. *)

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
  (* multiplicative inverse table by brute force (256^2 at init is free) *)
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

type key = int array
(* 11 round keys of 16 bytes each, flat: round r's byte i is at 16r + i *)

let expand_key keystr =
  if String.length keystr <> 16 then invalid_arg "Aes.expand_key: key must be 16 bytes";
  let w = Array.make 44 0 in
  (* 32-bit words, big-endian byte order within the word *)
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
  (* word 4r + b/4 of the schedule holds round r's bytes b..b+3 *)
  Array.init 176 (fun i -> (w.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff)

(* The state is 16 bytes of a [Bytes.t] at offset [o], in column-major
   order (FIPS layout: state[r + 4c] = input[4c + r], i.e. input bytes
   fill columns).  Every round transforms it in place: no copy of the
   state and no allocation.  Callers guarantee o + 16 <= length, which
   is what makes the unchecked accesses below safe. *)

let get s i = Char.code (Bytes.unsafe_get s i)
let set s i v = Bytes.unsafe_set s i (Char.unsafe_chr v)

let add_round_key s o rk round =
  let r = 16 * round in
  for i = 0 to 15 do
    set s (o + i) (get s (o + i) lxor Array.unsafe_get rk (r + i))
  done

let sub_bytes s o box =
  for i = o to o + 15 do
    set s i (Array.unsafe_get box (get s i))
  done

(* with the layout state.(4c + r), ShiftRows rotates row r left by r
   columns: fixed swaps on bytes r, r+4, r+8, r+12 *)
let shift_rows s o =
  let t = get s (o + 1) in
  set s (o + 1) (get s (o + 5));
  set s (o + 5) (get s (o + 9));
  set s (o + 9) (get s (o + 13));
  set s (o + 13) t;
  let t = get s (o + 2) in
  set s (o + 2) (get s (o + 10));
  set s (o + 10) t;
  let t = get s (o + 6) in
  set s (o + 6) (get s (o + 14));
  set s (o + 14) t;
  let t = get s (o + 15) in
  set s (o + 15) (get s (o + 11));
  set s (o + 11) (get s (o + 7));
  set s (o + 7) (get s (o + 3));
  set s (o + 3) t

let inv_shift_rows s o =
  let t = get s (o + 13) in
  set s (o + 13) (get s (o + 9));
  set s (o + 9) (get s (o + 5));
  set s (o + 5) (get s (o + 1));
  set s (o + 1) t;
  let t = get s (o + 2) in
  set s (o + 2) (get s (o + 10));
  set s (o + 10) t;
  let t = get s (o + 6) in
  set s (o + 6) (get s (o + 14));
  set s (o + 14) t;
  let t = get s (o + 3) in
  set s (o + 3) (get s (o + 7));
  set s (o + 7) (get s (o + 11));
  set s (o + 11) (get s (o + 15));
  set s (o + 15) t

(* per-constant multiplication tables: MixColumns runs per record byte *)
let mul_table c = Array.init 256 (fun x -> gmul x c)

let m2 = mul_table 2
let m3 = mul_table 3
let m9 = mul_table 9
let m11 = mul_table 11
let m13 = mul_table 13
let m14 = mul_table 14

let mix_columns s o =
  for c = 0 to 3 do
    let b = o + (4 * c) in
    let a0 = get s b and a1 = get s (b + 1) and a2 = get s (b + 2) and a3 = get s (b + 3) in
    set s b (Array.unsafe_get m2 a0 lxor Array.unsafe_get m3 a1 lxor a2 lxor a3);
    set s (b + 1) (a0 lxor Array.unsafe_get m2 a1 lxor Array.unsafe_get m3 a2 lxor a3);
    set s (b + 2) (a0 lxor a1 lxor Array.unsafe_get m2 a2 lxor Array.unsafe_get m3 a3);
    set s (b + 3) (Array.unsafe_get m3 a0 lxor a1 lxor a2 lxor Array.unsafe_get m2 a3)
  done

let inv_mix_columns s o =
  for c = 0 to 3 do
    let b = o + (4 * c) in
    let a0 = get s b and a1 = get s (b + 1) and a2 = get s (b + 2) and a3 = get s (b + 3) in
    set s b
      (Array.unsafe_get m14 a0 lxor Array.unsafe_get m11 a1 lxor Array.unsafe_get m13 a2
     lxor Array.unsafe_get m9 a3);
    set s (b + 1)
      (Array.unsafe_get m9 a0 lxor Array.unsafe_get m14 a1 lxor Array.unsafe_get m11 a2
     lxor Array.unsafe_get m13 a3);
    set s (b + 2)
      (Array.unsafe_get m13 a0 lxor Array.unsafe_get m9 a1 lxor Array.unsafe_get m14 a2
     lxor Array.unsafe_get m11 a3);
    set s (b + 3)
      (Array.unsafe_get m11 a0 lxor Array.unsafe_get m13 a1 lxor Array.unsafe_get m9 a2
     lxor Array.unsafe_get m14 a3)
  done

let encrypt_in_place rk s o =
  add_round_key s o rk 0;
  for round = 1 to 9 do
    sub_bytes s o sbox;
    shift_rows s o;
    mix_columns s o;
    add_round_key s o rk round
  done;
  sub_bytes s o sbox;
  shift_rows s o;
  add_round_key s o rk 10

let decrypt_in_place rk s o =
  add_round_key s o rk 10;
  inv_shift_rows s o;
  sub_bytes s o inv_sbox;
  for round = 9 downto 1 do
    add_round_key s o rk round;
    inv_mix_columns s o;
    inv_shift_rows s o;
    sub_bytes s o inv_sbox
  done;
  add_round_key s o rk 0

let encrypt_block rk block =
  if String.length block <> 16 then invalid_arg "Aes.encrypt_block: block must be 16 bytes";
  let s = Bytes.of_string block in
  encrypt_in_place rk s 0;
  Bytes.unsafe_to_string s

let decrypt_block rk block =
  if String.length block <> 16 then invalid_arg "Aes.decrypt_block: block must be 16 bytes";
  let s = Bytes.of_string block in
  decrypt_in_place rk s 0;
  Bytes.unsafe_to_string s

(* The CBC modes chain through one output buffer: each block is XORed
   with its predecessor (the IV first) and transformed where it lies. *)

let cbc_encrypt ~key ~iv plaintext =
  if String.length iv <> 16 then invalid_arg "Aes.cbc_encrypt: iv must be 16 bytes";
  let rk = expand_key key in
  let n = String.length plaintext in
  let pad = 16 - (n mod 16) in
  let out = Bytes.make (n + pad) (Char.chr pad) in
  Bytes.blit_string plaintext 0 out 0 n;
  for b = 0 to ((n + pad) / 16) - 1 do
    let o = 16 * b in
    for i = 0 to 15 do
      let prev = if b = 0 then Char.code (String.unsafe_get iv i) else get out (o - 16 + i) in
      set out (o + i) (get out (o + i) lxor prev)
    done;
    encrypt_in_place rk out o
  done;
  Bytes.unsafe_to_string out

let cbc_decrypt ~key ~iv ciphertext =
  if String.length iv <> 16 then invalid_arg "Aes.cbc_decrypt: iv must be 16 bytes";
  let n = String.length ciphertext in
  if n = 0 || n mod 16 <> 0 then Error "ciphertext length not a positive multiple of 16"
  else begin
    let rk = expand_key key in
    let out = Bytes.of_string ciphertext in
    for b = 0 to (n / 16) - 1 do
      let o = 16 * b in
      decrypt_in_place rk out o;
      let prev = if b = 0 then iv else ciphertext in
      let po = if b = 0 then 0 else o - 16 in
      for i = 0 to 15 do
        set out (o + i) (get out (o + i) lxor Char.code (String.unsafe_get prev (po + i)))
      done
    done;
    let pad = get out (n - 1) in
    if pad < 1 || pad > 16 then Error "bad padding"
    else begin
      let ok = ref true in
      for i = n - pad to n - 1 do
        if get out i <> pad then ok := false
      done;
      if !ok then Ok (Bytes.sub_string out 0 (n - pad)) else Error "bad padding"
    end
  end
